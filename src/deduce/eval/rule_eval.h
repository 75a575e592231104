#ifndef DEDUCE_EVAL_RULE_EVAL_H_
#define DEDUCE_EVAL_RULE_EVAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "deduce/datalog/builtins.h"
#include "deduce/datalog/rule.h"
#include "deduce/datalog/unify.h"
#include "deduce/eval/database.h"

namespace deduce {

/// A positive body fact matched during one derivation, in body order.
struct MatchedFact {
  Fact fact;
  TupleId id;
  size_t body_index = 0;
};

/// Options for one rule-body evaluation.
struct RuleEvalOptions {
  /// If set, the body literal at this index is "pinned": instead of scanning
  /// the database (positive literal) or checking absence (negated literal),
  /// it is matched against the facts in `pin_facts` only. This implements
  /// both semi-naive deltas and the update-driven maintenance of §IV-B
  /// (where an update to a negated stream binds through the negated
  /// subgoal).
  std::optional<size_t> pin_index;
  const std::vector<std::pair<Fact, TupleId>>* pin_facts = nullptr;

  /// Safety valve on emitted derivations.
  uint64_t max_results = UINT64_MAX;
};

/// Counters for one evaluation (accumulated if reused).
struct RuleEvalStats {
  uint64_t probes = 0;   ///< Facts examined while matching positive literals.
  uint64_t emitted = 0;  ///< Derivations emitted.
};

/// Matches `pattern` (after applying `subst`) against a ground term like
/// MatchTerm, additionally solving simple arithmetic patterns (Var+c, Var-c,
/// c+Var against an integer). Lets updates bind *through* subgoals carrying
/// arithmetic, e.g. pinning h1(Y, D+1) to a concrete tuple (§IV-B).
bool SolveMatchTerm(const Term& pattern, const Term& ground, Subst* subst,
                    const BuiltinRegistry& registry);

/// Position-wise SolveMatchTerm over argument lists.
bool SolveMatchTerms(const std::vector<Term>& patterns,
                     const std::vector<Term>& grounds, Subst* subst,
                     const BuiltinRegistry& registry);

/// `args` under `subst`, each with its bindings applied and registered
/// functions evaluated, skipping the argument at `skip`; nullopt unless
/// every one evaluates to a ground term. Builds heads, group keys and
/// negated atoms from a partial's bindings.
std::optional<std::vector<Term>> GroundArgs(
    const std::vector<Term>& args, const Subst& subst,
    const BuiltinRegistry& registry,
    std::optional<size_t> skip = std::nullopt);

/// Rejects rows for SolveMatchTerms(patterns, row, &subst) before a caller
/// copies `subst` to try them. Each pattern is normalized once, as
/// SolveMatchTerm does. A pattern that normalizes to a ground term keeps
/// it while SolveMatchTerms extends the substitution, and SolveMatchTerm
/// compares a ground pattern with ==, so a row that differs in such a
/// column fails SolveMatchTerms too. The filter is exact as a rejection
/// test; SolveMatchTerms still decides every row it admits.
class GroundColumnFilter {
 public:
  GroundColumnFilter(const std::vector<Term>& patterns, const Subst& subst,
                     const BuiltinRegistry& registry);

  /// False when SolveMatchTerms must reject `row`.
  bool Admits(const std::vector<Term>& row) const;

 private:
  size_t arity_;
  /// (column, normalized ground pattern), in column order.
  std::vector<std::pair<size_t, Term>> ground_;
};

/// Evaluates the body of one rule against a RelationReader, emitting every
/// satisfying substitution. This is the single join engine shared by the
/// centralized semi-naive evaluator, the staged XY evaluator and the
/// incremental maintainers. The distributed runtime does not use it: its
/// join component extends partials against a node's replica table
/// (NodeRuntime::ProbeReplicas).
///
/// Literals are consumed in a greedy order: the pinned literal first, then
/// fully-bound filters (comparisons, built-ins, negations) as soon as they
/// become evaluable, then the positive literal with the most bound
/// variables. The range-restriction (safety) check guarantees the order
/// always completes.
class RuleBodyEvaluator {
 public:
  /// Both pointers must outlive the evaluator.
  RuleBodyEvaluator(const Rule* rule, const BuiltinRegistry* registry);

  /// Emits each derivation: the final substitution plus the positive body
  /// facts used (pinned negated facts are not included — derivations record
  /// positive support only, per §IV Definition 2). A non-OK status from
  /// `emit` aborts the evaluation and is returned.
  Status Evaluate(
      const RelationReader& db, const RuleEvalOptions& opts,
      const std::function<Status(const Subst&,
                                 const std::vector<MatchedFact>&)>& emit,
      RuleEvalStats* stats = nullptr) const;

  /// Builds the ground head fact for a satisfying substitution (arithmetic
  /// in the head is evaluated). Fails if the head is not ground — cannot
  /// happen for safe rules.
  StatusOr<Fact> BuildHead(const Subst& subst) const;

  const Rule& rule() const { return *rule_; }

 private:
  struct Frame;
  Status Step(const RelationReader& db, const RuleEvalOptions& opts,
              Frame* frame,
              const std::function<Status(const Subst&,
                                         const std::vector<MatchedFact>&)>&
                  emit,
              RuleEvalStats* stats) const;

  const Rule* rule_;
  const BuiltinRegistry* registry_;
  /// Variables of each body literal, precomputed.
  std::vector<std::vector<SymbolId>> literal_vars_;
};

}  // namespace deduce

#endif  // DEDUCE_EVAL_RULE_EVAL_H_
