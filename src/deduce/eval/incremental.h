#ifndef DEDUCE_EVAL_INCREMENTAL_H_
#define DEDUCE_EVAL_INCREMENTAL_H_

#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/datalog/analysis.h"
#include "deduce/datalog/program.h"
#include "deduce/eval/database.h"
#include "deduce/eval/rule_eval.h"

namespace deduce {

/// How derived results are maintained under deletions (§IV-A discusses all
/// three; the paper adopts the set-of-derivations approach).
enum class MaintenanceStrategy {
  /// Keep the set of derivations of each derived tuple (§IV, Definition 2).
  /// No extra communication; storage proportional to #derivations. Correct
  /// for non-recursive programs, XY-stratified programs, and in general for
  /// locally non-recursive programs (acyclic derivations).
  kDerivations,
  /// Keep a multiplicity counter per derived tuple [Gupta-Mumick-
  /// Subrahmanian '93]. Restricted here to non-recursive programs (counts
  /// diverge under recursion).
  kCounting,
  /// Delete-and-rederive (DRed): over-delete, then recompute survivors.
  /// Costs extra (re)computation — the ablation benchmark quantifies it.
  /// Restricted here to programs without negation.
  kRederivation,
};

/// One derivation of a derived tuple: the rule used plus the ids of the
/// positive body tuples that joined to produce it (§IV, Definition 2).
struct Derivation {
  int rule_id = -1;  ///< -1 marks a program-fact "axiom".
  std::vector<TupleId> support;

  bool operator==(const Derivation& o) const {
    return rule_id == o.rule_id && support == o.support;
  }
  bool operator<(const Derivation& o) const {
    if (rule_id != o.rule_id) return rule_id < o.rule_id;
    return support < o.support;
  }
  std::string ToString() const;
};

struct IncrementalOptions {
  MaintenanceStrategy strategy = MaintenanceStrategy::kDerivations;
  /// nullptr uses BuiltinRegistry::Default().
  const BuiltinRegistry* registry = nullptr;
  uint64_t max_facts = 5'000'000;
};

/// Incremental bottom-up maintenance of a deductive program over timestamped
/// stream events. This is the centralized mirror of the distributed engine's
/// per-event processing: every derived predicate behaves as a derived data
/// stream (§III-B) whose insertions/deletions are reported to the caller.
///
/// Apply events in non-decreasing time order. Window expiry is an implicit
/// deletion at gen_ts + window.
class IncrementalEngine {
 public:
  struct Stats {
    uint64_t events = 0;
    uint64_t derivations_added = 0;
    uint64_t derivations_removed = 0;
    uint64_t probes = 0;
    uint64_t rederive_rounds = 0;
    uint64_t rederive_probes = 0;
    /// Peak count of live derivation records (storage-overhead proxy).
    uint64_t peak_derivations = 0;
  };

  /// Validates the program class for the chosen strategy. Program facts act
  /// as permanent axioms.
  static StatusOr<std::unique_ptr<IncrementalEngine>> Create(
      const Program& program, const IncrementalOptions& options);

  /// Processes one base-stream event (and everything it cascades into).
  /// Events must arrive in non-decreasing `event.time` order; expiry due by
  /// that time is processed first. Derived-stream events (inserts/deletes of
  /// IDB tuples, including transient ones) are appended to `out` if
  /// non-null.
  Status Apply(const StreamEvent& event, std::vector<StreamEvent>* out);

  /// Processes window expirations with deadline <= now.
  Status AdvanceTo(Timestamp now, std::vector<StreamEvent>* out);

  /// Snapshot of all currently-alive facts (base + derived).
  Database AliveDatabase() const;

  /// Alive facts of one predicate.
  std::vector<Fact> AliveFacts(SymbolId pred) const;

  /// True if `fact` is alive and (for kDerivations) at least one of its
  /// derivations unfolds into a valid proof tree — the runtime check behind
  /// the "locally non-recursive" program class (§IV-C). Base facts are
  /// always valid.
  StatusOr<bool> HasValidProofTree(const Fact& fact) const;

  /// Runs HasValidProofTree over every alive derived fact; returns the facts
  /// that fail (non-empty result demonstrates the §IV-C limitation on
  /// programs with cyclic derivations).
  StatusOr<std::vector<Fact>> FactsWithoutValidProof() const;

  const Stats& stats() const { return stats_; }
  const ProgramAnalysis& analysis() const { return analysis_; }

 private:
  struct Entry {
    TupleId id;
    Timestamp gen_ts = 0;
    bool alive = false;
    bool base = false;           ///< Inserted by the caller (EDB / axiom).
    std::set<Derivation> derivs; ///< kDerivations / kRederivation.
    int64_t count = 0;           ///< kCounting.
  };

  /// RelationReader over alive entries.
  class AliveView;

  IncrementalEngine(Program program, ProgramAnalysis analysis,
                    const BuiltinRegistry* registry,
                    const IncrementalOptions& options);

  Status ApplyInternal(const StreamEvent& event, std::vector<StreamEvent>* out);
  Status ProcessInsert(const StreamEvent& event, std::vector<StreamEvent>* out,
                       std::deque<StreamEvent>* queue);
  Status ProcessDelete(const StreamEvent& event, std::vector<StreamEvent>* out,
                       std::deque<StreamEvent>* queue);

  Status AddDerivation(const Fact& fact, const Derivation& d, Timestamp t,
                       std::vector<StreamEvent>* out,
                       std::deque<StreamEvent>* queue);
  Status RemoveDerivation(const Fact& fact, const Derivation& d, Timestamp t,
                          std::vector<StreamEvent>* out,
                          std::deque<StreamEvent>* queue);

  /// Rederivation phase of DRed after over-deletion.
  Status Rederive(Timestamp t, std::vector<StreamEvent>* out,
                  std::deque<StreamEvent>* queue);

  Entry* FindEntry(const Fact& fact);
  const Entry* FindEntry(const Fact& fact) const;

  void ScheduleExpiry(SymbolId pred, const Fact& fact, Timestamp gen_ts);
  Timestamp WindowOf(SymbolId pred) const;

  bool ProofDfs(const Fact& fact, std::set<std::string>* visiting,
                std::map<std::string, bool>* memo) const;

  Program program_;
  ProgramAnalysis analysis_;
  const BuiltinRegistry* registry_;
  IncrementalOptions options_;

  /// Positive / negated body occurrences per predicate: (rule idx, literal
  /// idx).
  std::unordered_map<SymbolId, std::vector<std::pair<size_t, size_t>>>
      positive_occurrences_;
  std::unordered_map<SymbolId, std::vector<std::pair<size_t, size_t>>>
      negated_occurrences_;
  std::vector<std::unique_ptr<RuleBodyEvaluator>> evaluators_;

  /// Per-predicate entries with deterministic (insertion-order) iteration.
  struct Rel {
    std::unordered_map<Fact, Entry, FactHash> map;
    std::vector<Fact> order;  ///< Append-only; entries toggle `alive`.
  };
  std::unordered_map<SymbolId, Rel> store_;
  std::map<TupleId, std::pair<SymbolId, Fact>> id_index_;

  struct ExpiryItem {
    Timestamp when;
    uint64_t order;  // tie-break, deterministic
    SymbolId pred;
    Fact fact;
    Timestamp gen_ts;
    bool operator>(const ExpiryItem& o) const {
      if (when != o.when) return when > o.when;
      return order > o.order;
    }
  };
  std::priority_queue<ExpiryItem, std::vector<ExpiryItem>,
                      std::greater<ExpiryItem>>
      expiry_;
  uint64_t expiry_order_ = 0;

  uint32_t seq_ = 0;
  uint64_t live_derivations_ = 0;
  /// Facts tentatively deleted by DRed awaiting rederivation.
  std::vector<std::pair<SymbolId, Fact>> dred_candidates_;
  bool in_dred_delete_ = false;

  Stats stats_;
};

}  // namespace deduce

#endif  // DEDUCE_EVAL_INCREMENTAL_H_
