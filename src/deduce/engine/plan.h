#ifndef DEDUCE_ENGINE_PLAN_H_
#define DEDUCE_ENGINE_PLAN_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/datalog/analysis.h"
#include "deduce/datalog/program.h"

namespace deduce {

/// Where tuples of a predicate are replicated in the storage phase
/// (§III-A; the GPA storage region).
enum class StoragePolicy {
  kRow,        ///< Along the source's horizontal path (original PA).
  kBroadcast,  ///< Entire network (Naive Broadcast degenerate case).
  kLocal,      ///< Source node only (Local Storage degenerate case).
  kSpatial,    ///< All nodes within `spatial_radius` hops of the source.
  kCentroid,   ///< The rendezvous node near the network centroid.
};

const char* StoragePolicyToString(StoragePolicy p);

/// Parses a default storage policy as `dlog --storage` and scenario files
/// name it: "row" (also the empty string), "broadcast", "local" or
/// "centroid". False for anything else.
bool StoragePolicyFromName(const std::string& name, StoragePolicy* out);

/// How a rule's join computation travels when an update arrives (the GPA
/// join-computation region).
enum class JoinStrategy {
  kLocalOnly,   ///< Everything needed is on the source node (Broadcast
                ///< storage / spatially-covered rules).
  kColumnSweep, ///< Sweep the update's vertical path (original PA).
  kSerpentine,  ///< Sweep the whole network (Local Storage degenerate).
  kCentroid,    ///< Route the update to the centroid and join there.
  kLocalRoute,  ///< Hop partials between data homes (home-placed
                ///< predicates; the shortest-path-tree programs of §V/§VI).
};

const char* JoinStrategyToString(JoinStrategy s);

/// Per-predicate placement decisions.
struct PredicatePlan {
  SymbolId pred = 0;
  bool derived = false;
  StoragePolicy storage = StoragePolicy::kRow;
  int spatial_radius = 0;
  /// Derived predicates: argument whose (integer node-id) value is the home
  /// node; unset = geographic hashing of the fact.
  std::optional<size_t> home_arg;
  /// Sliding-window range; kNoWindow = unbounded.
  Timestamp window = kNoWindow;
};

/// One step of a kLocalRoute plan.
struct RouteStep {
  size_t literal = 0;
  enum class Where {
    kHere,       ///< Data available wherever the partial currently is.
    kAtArgNode,  ///< Move to the node named by a bound argument.
  } where = Where::kHere;
  size_t arg = 0;  ///< For kAtArgNode: which argument of the literal.
};

/// The compiled reaction to one update kind: "when a tuple of body literal
/// `pinned_literal` of rule `rule_index` changes, run this join" (§IV-B:
/// one maintenance join per body stream occurrence).
struct DeltaPlan {
  size_t rule_index = 0;
  size_t pinned_literal = 0;
  JoinStrategy strategy = JoinStrategy::kColumnSweep;
  /// Sweeps: run the multiple-pass scheme (§III-A) instead of single-pass.
  bool multipass = false;
  /// Multipass order of positive literals (one pass per literal, then a
  /// final pass completing negation checks).
  std::vector<size_t> pass_literals;
  /// kLocalRoute: ordered evaluation steps.
  std::vector<RouteStep> steps;

  std::string ToString(const Program& program) const;
};

/// Global options for planning (benchmarks switch approaches here).
struct PlannerOptions {
  StoragePolicy default_storage = StoragePolicy::kRow;  ///< Base streams.
  /// Derived predicates default to the same policy as base streams.
  /// Multipass scheme for sweeps.
  bool multipass = false;
  /// Multi-tenant compilation (CompileMultiPlan): two tenants may use the
  /// same derived predicate name only when their sub-plans are identical
  /// (then the name dedups onto one shared evaluation). When a name
  /// collides across tenants with *different* sub-plans, strict mode
  /// rejects the registration with a clear error; non-strict mode renames
  /// the later tenant's predicate to "name@tenant" and keeps going.
  bool strict_tenant_collisions = true;
};

/// Compiled plan for an aggregate rule, e.g. avgt(R, avg(C)) :- temp(R, C).
/// Updates of the source stream are folded incrementally at a per-group
/// home node, which re-emits the aggregate fact whenever the value changes
/// — the engine-integrated version of §IV-C's incremental aggregates
/// (point-to-point rather than TAG's tree; see engine/aggregation.h for the
/// tree variant used for root-destined aggregates).
struct AggregatePlan {
  size_t rule_index = 0;
  size_t source_literal = 0;  ///< The single positive relational literal.
  AggKind kind = AggKind::kCount;
  size_t agg_position = 0;    ///< Aggregate argument index in the head.
  Term input;                 ///< Aggregated expression.
};

/// The compiled program: placements plus delta plans, indexed by predicate.
struct QueryPlan {
  Program program;           ///< Builtins resolved.
  ProgramAnalysis analysis;
  std::unordered_map<SymbolId, PredicatePlan> preds;
  std::vector<DeltaPlan> deltas;
  /// deltas indexes grouped by the pinned literal's predicate.
  std::unordered_map<SymbolId, std::vector<size_t>> deltas_by_pred;
  std::vector<AggregatePlan> aggregates;
  /// aggregate indexes grouped by the source predicate.
  std::unordered_map<SymbolId, std::vector<size_t>> aggregates_by_pred;

  const PredicatePlan& pred_plan(SymbolId pred) const {
    return preds.at(pred);
  }
  std::string ToString() const;
};

/// Compiles `program` into a QueryPlan. Validates the supported program
/// classes (rejects non-XY-stratified recursion through negation) and that
/// every rule is coverable by some join strategy under the chosen
/// placements. Aggregate rules are supported when they have exactly one
/// positive relational body literal plus filters (incremental per-group
/// aggregation); richer aggregate bodies are rejected toward the TAG
/// component (engine/aggregation.h). `.decl` storage/join properties
/// override the defaults.
StatusOr<QueryPlan> CompilePlan(const Program& program,
                                const BuiltinRegistry& registry,
                                const PlannerOptions& options);

// --- multi-tenant compilation ------------------------------------------------

/// One tenant's program, registered under a stable tenant name.
struct TenantProgram {
  std::string tenant;
  Program program;
};

/// Per-tenant read map over the merged evaluation DAG: where the facts the
/// tenant asked for actually live. Identity for predicates the tenant owns
/// (it registered the canonical sub-plan, or got a same-named alias store);
/// "name@tenant" for non-strict collision renames.
struct TenantView {
  std::string tenant;
  /// 1-based wire tenant id; 0 on the wire means "shared traffic" so that
  /// single-tenant frames stay byte-identical.
  uint32_t index = 0;
  /// Tenant predicate -> predicate the merged engine materializes for it.
  std::unordered_map<SymbolId, SymbolId> read;
  /// The tenant's derived / input predicates, deterministic order.
  std::vector<SymbolId> derived;
  std::vector<SymbolId> edb;
};

/// Result fan-out table: results of a canonical (deduped) sub-plan must
/// also be applied under each listed alias predicate, relabeled, so every
/// tenant keeps its own result homes and trace attribution. Keyed by the
/// canonical predicate; entries carry (wire tenant id, alias predicate).
using ResultFanout =
    std::unordered_map<SymbolId,
                       std::vector<std::pair<uint32_t, SymbolId>>>;

/// N tenant programs compiled onto one shared evaluation DAG.
struct MultiPlan {
  QueryPlan plan;               ///< The merged, deduplicated plan.
  std::vector<TenantView> views;
  ResultFanout fanout;
  /// Distinct derived sub-plans the merged DAG evaluates.
  uint64_t subplans_total = 0;
  /// Derived sub-plans requested across all tenants (pre-dedup).
  uint64_t subplans_requested = 0;
  /// requested - total: evaluations saved by cross-tenant sharing.
  uint64_t subplans_shared = 0;
};

/// Compiles N tenant programs into one shared evaluation DAG. Sub-plans are
/// canonicalized per dependency SCC (decl properties + rules with variables
/// and member names normalized, body predicates resolved through earlier
/// tenants) and deduplicated: two tenants whose predicates have identical
/// sub-plans share one evaluation; when the shared sub-plan lives under a
/// different name, its results are fanned out to a per-tenant alias store
/// (ResultFanout). Input streams are shared by name and must be declared
/// consistently across tenants. Name collisions between *different*
/// sub-plans follow PlannerOptions::strict_tenant_collisions.
StatusOr<MultiPlan> CompileMultiPlan(const std::vector<TenantProgram>& tenants,
                                     const BuiltinRegistry& registry,
                                     const PlannerOptions& options);

}  // namespace deduce

#endif  // DEDUCE_ENGINE_PLAN_H_
