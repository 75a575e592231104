#ifndef DEDUCE_ENGINE_ENGINE_H_
#define DEDUCE_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "deduce/engine/runtime.h"
#include "deduce/eval/database.h"
#include "deduce/eval/incremental.h"

namespace deduce {

/// Assumed maximum message size for the τ_s / τ_j delay bounds (bytes).
constexpr size_t kMaxMessageBytes = 2048;

/// Options for the distributed deductive engine.
struct EngineOptions {
  PlannerOptions planner;
  /// Built-in registry copied into the engine; nullptr = Default().
  const BuiltinRegistry* registry = nullptr;
  /// Safety factor applied to the computed τ_s / τ_j bounds.
  double timing_margin = 1.5;
  /// Finalization wait for derived tuples (§IV-C); -1 = auto (τs + τc).
  SimTime finalize_delay = -1;
  /// End-to-end reliable transport for engine messages (off by default:
  /// best-effort unicasts, exactly the pre-transport behavior).
  TransportOptions transport;
  /// State repair for crash-rebooted / diverged replica stores (both modes
  /// off by default; see repair.h and DESIGN.md §10).
  RepairOptions repair;
  /// Per-hop frame integrity: senders append a 4-byte FNV-1a checksum of
  /// the payload and receivers verify + strip it before decoding, dropping
  /// (and counting, EngineStats::decode_errors) damaged frames — the
  /// engine-level stand-in for an 802.15.4 MAC CRC. Off by default so wire
  /// bytes (and every committed baseline) stay identical; turn it on when
  /// the network injects corruption (docs/FAULTS.md).
  bool checksum = false;
  /// Observability sinks, both off (null) by default. `metrics` receives
  /// live per-phase/per-predicate traffic counters and span timings;
  /// `trace` receives one JSONL record per transmission, injection, and
  /// retransmission. Caller-owned; must outlive the engine.
  MetricsRegistry* metrics = nullptr;
  TraceWriter* trace = nullptr;
  /// Causal tuple provenance: per-node lineage rings, "deriv" trace
  /// records, trace-id'd hops/injects, per-predicate latency histograms
  /// (off by default; see provenance.h and docs/OBSERVABILITY.md).
  ProvenanceOptions provenance;
  /// Per-node resource budgets + load-shedding policy (off by default; see
  /// runtime.h BudgetOptions and docs/FAULTS.md "Overload and shedding").
  /// With budgets off every path below is byte-identical to the
  /// pre-budget engine.
  BudgetOptions budget;
};

/// The distributed deductive query engine (the paper's contribution):
/// compiles a program onto a simulated sensor network; each node runs the
/// §V architecture (generic join component, hashing component, routing).
///
/// Usage:
/// \code
///   Network net(Topology::Grid(10), LinkModel{}, seed);
///   auto engine = DistributedEngine::Create(&net, program, options);
///   engine->Inject(node, StreamOp::kInsert, fact);
///   net.sim().Run();                       // quiesce
///   auto alerts = engine->ResultFacts(Intern("uncov"));
/// \endcode
class DistributedEngine {
 public:
  /// Compiles the program and installs a runtime on every node of
  /// `network` (which must not have apps yet). Starts the network.
  /// FailedPrecondition if the network's topology is disconnected.
  static StatusOr<std::unique_ptr<DistributedEngine>> Create(
      Network* network, const Program& program, const EngineOptions& options);

  /// Installs a runtime for an already-compiled plan (the multi-tenant
  /// path: MultiTenantEngine compiles N programs into one shared plan with
  /// CompileMultiPlan and hands the merged plan plus the per-tenant result
  /// fan-out table here). With an empty fanout this is exactly the tail of
  /// Create() — single-program behavior is byte-identical.
  static StatusOr<std::unique_ptr<DistributedEngine>> CreateFromPlan(
      Network* network, QueryPlan plan, ResultFanout fanout,
      const EngineOptions& options);

  /// Injects a base-stream update at `node`, at the current simulation
  /// time (the sensing API). Run the simulator to propagate.
  Status Inject(NodeId node, StreamOp op, const Fact& fact);

  /// Runs the simulation to quiescence.
  void Run() { network_->sim().Run(); }

  /// Alive derived facts of `pred`, unioned over all home nodes.
  std::vector<Fact> ResultFacts(SymbolId pred) const;

  /// All alive derived facts.
  Database ResultDatabase() const;

  /// Alive derived facts whose reporting result-home entry was never
  /// touched by a degraded (repair-resync or shedding) pass. The
  /// shed-soundness invariant checks this set — and only this set —
  /// against the fault-free oracle: a shed may lose results or degrade
  /// them, but must never let a wrong result through undegraded.
  Database UndegradedResultDatabase() const;

  /// Per-node memory accounting (§V): replicas and derivation records.
  size_t TotalReplicas() const;
  size_t TotalDerivations() const;
  size_t MaxNodeReplicas() const;

  /// Lineage edges currently held in the per-node provenance rings, nodes
  /// in id order, insertion order within a node. Empty when
  /// EngineOptions::provenance is off (rebooted nodes restart empty; the
  /// trace stream keeps the durable copy).
  std::vector<ProvenanceEdge> ProvenanceEdges() const;

  const EngineStats& stats() const { return shared_->stats; }
  const QueryPlan& plan() const { return shared_->plan; }
  const EngineTiming& timing() const { return shared_->timing; }
  Network* network() { return network_; }
  const Network* network() const { return network_; }

  /// The per-node runtime (home stores, shareable digests, degraded
  /// flags) — read-only access for the invariant suite (invariants.h).
  const NodeRuntime& runtime(NodeId id) const {
    return *runtimes_[static_cast<size_t>(id)];
  }

 private:
  DistributedEngine() = default;

  Network* network_ = nullptr;
  std::unique_ptr<EngineShared> shared_;
  std::vector<NodeRuntime*> runtimes_;  // owned by the network
};

/// N tenant programs multiplexed onto one shared engine (DESIGN.md §13).
/// Register every tenant's program with AddProgram, then Start: the
/// programs are compiled together (CompileMultiPlan), identical sub-plans
/// are evaluated once, and each tenant reads its own results — per-tenant
/// result homes, dedup-aware — through the tenant-scoped accessors.
///
/// Usage:
/// \code
///   MultiTenantEngine mte(options);
///   mte.AddProgram("alice", program_a);
///   mte.AddProgram("bob", program_b);
///   auto st = mte.Start(&net);          // compiles + installs + starts
///   mte.Inject(node, StreamOp::kInsert, fact);
///   mte.Run();
///   auto db = mte.ResultDatabase("bob");
/// \endcode
class MultiTenantEngine {
 public:
  explicit MultiTenantEngine(const EngineOptions& options)
      : options_(options) {}

  /// Registers `program` under `tenant` (a stable, unique tenant name).
  /// Must be called before Start.
  Status AddProgram(const std::string& tenant, const Program& program);

  /// Compiles all registered programs into one shared evaluation DAG and
  /// installs it on `network`. Exports tenancy counters ("tenant"
  /// component) to EngineOptions::metrics when configured.
  Status Start(Network* network);

  /// Injects a base-stream update (input streams are shared by name
  /// across tenants; see CompileMultiPlan).
  Status Inject(NodeId node, StreamOp op, const Fact& fact);

  /// Runs the simulation to quiescence.
  void Run();

  /// Alive derived facts of `pred` as `tenant` sees them (relabeled back
  /// to the tenant's own predicate names where the plan renamed them).
  StatusOr<std::vector<Fact>> ResultFacts(const std::string& tenant,
                                          SymbolId pred) const;
  /// All alive derived facts of `tenant`, under the tenant's names.
  StatusOr<Database> ResultDatabase(const std::string& tenant) const;
  /// The undegraded subset (see DistributedEngine), per tenant.
  StatusOr<Database> UndegradedResultDatabase(const std::string& tenant) const;

  size_t tenant_count() const { return programs_.size(); }
  /// Valid after Start.
  const MultiPlan& multi_plan() const { return multi_; }
  DistributedEngine* engine() { return engine_.get(); }
  const DistributedEngine* engine() const { return engine_.get(); }
  const EngineStats& stats() const { return engine_->stats(); }

 private:
  const TenantView* FindView(const std::string& tenant) const;

  EngineOptions options_;
  std::vector<TenantProgram> programs_;
  MultiPlan multi_;
  std::unique_ptr<DistributedEngine> engine_;
};

/// The naive external/centralized baseline (§III-A: "send each generated
/// tuple to some central server"): every update is routed hop-by-hop to a
/// sink node which maintains the program with the centralized incremental
/// engine. Communication cost scales with distance-to-sink and the sink's
/// neighborhood melts — the comparison every in-network approach is
/// measured against.
class CentralizedEngine {
 public:
  static StatusOr<std::unique_ptr<CentralizedEngine>> Create(
      Network* network, const Program& program, NodeId sink,
      const IncrementalOptions& options);

  Status Inject(NodeId node, StreamOp op, const Fact& fact);
  void Run() { network_->sim().Run(); }

  std::vector<Fact> ResultFacts(SymbolId pred) const;

  IncrementalEngine* sink_engine() { return sink_engine_.get(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  class ForwarderApp;

  CentralizedEngine() = default;

  Network* network_ = nullptr;
  NodeId sink_ = 0;
  std::shared_ptr<RoutingTable> routing_;
  std::unique_ptr<IncrementalEngine> sink_engine_;
  std::vector<std::string> errors_;
  uint32_t seq_ = 0;
};

}  // namespace deduce

#endif  // DEDUCE_ENGINE_ENGINE_H_
