#ifndef DEDUCE_ENGINE_COUNTERFACTUAL_PERTURB_H_
#define DEDUCE_ENGINE_COUNTERFACTUAL_PERTURB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/datalog/fact.h"

namespace deduce {

/// One counterfactual perturbation of a scenario — the "what if the world
/// were different" half of `dlog explain --counterfactual`. The grammar is
/// one clause per perturbation, `key=value,action`:
///
///   node=5,down            fail node 5 at t=0 (never recovers)
///   link=2-7,cut           cut the 2->7 and 7->2 links at t=0
///   inject=r(1, 3, 7),drop drop every base-stream event carrying that fact
///   budget=replicas,4      enable budgets, cap live replicas/pred/node at 4
///
/// Clauses compose with ';' in a spec string and serialize one per line in
/// a scenario-v3 `[perturb]` block, so a counterfactual run is itself a
/// replayable scenario file. An unknown key or action is a parse error,
/// never best-effort (matching the fault-kind precedent: a perturbation
/// this build does not understand cannot be trusted to reproduce).
struct Perturbation {
  enum class Kind : uint8_t {
    kNodeDown = 0,
    kLinkCut = 1,
    kInjectDrop = 2,
    kBudget = 3,
  };

  Kind kind = Kind::kNodeDown;
  NodeId node = kNoNode;        ///< kNodeDown.
  NodeId link_a = kNoNode;      ///< kLinkCut endpoints.
  NodeId link_b = kNoNode;
  std::string fact;             ///< kInjectDrop: canonical fact text.
  std::string budget_kind;      ///< kBudget: replicas|inflight|eval|ingress.
  uint64_t budget_value = 0;    ///< kBudget: the cap.

  /// The clause text this perturbation round-trips through
  /// (ParsePerturbation(ToSpec()) == *this).
  std::string ToSpec() const;

  bool operator==(const Perturbation& o) const;
};

/// Parses one clause. The action is found at the *last* ',' of the clause
/// (fact text in `inject=...` legitimately contains commas).
StatusOr<Perturbation> ParsePerturbation(const std::string& clause);

/// Parses a ';'-separated spec string ("node=5,down;budget=replicas,4").
/// Empty clauses are skipped; an empty spec is an error (a counterfactual
/// with no perturbation explains nothing).
StatusOr<std::vector<Perturbation>> ParsePerturbationSpec(
    const std::string& spec);

/// Canonical ';'-joined spec for a perturbation list.
std::string FormatPerturbationSpec(const std::vector<Perturbation>& ps);

}  // namespace deduce

#endif  // DEDUCE_ENGINE_COUNTERFACTUAL_PERTURB_H_
