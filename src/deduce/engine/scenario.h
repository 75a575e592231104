#ifndef DEDUCE_ENGINE_SCENARIO_H_
#define DEDUCE_ENGINE_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "deduce/common/metrics.h"
#include "deduce/common/status.h"
#include "deduce/common/trace.h"
#include "deduce/datalog/fact.h"
#include "deduce/engine/counterfactual/perturb.h"
#include "deduce/engine/invariants.h"
#include "deduce/eval/database.h"
#include "deduce/net/network.h"

namespace deduce {

/// One base-stream injection of a chaos scenario (or of a `dlog simulate`
/// events file).
struct ScenarioEvent {
  SimTime time = 0;
  NodeId node = 0;
  StreamOp op = StreamOp::kInsert;
  Fact fact;
};

/// Parses one event line, `<time> <node> +|- <fact>.`; `lineno` is only
/// for the error message. The `[events]` section of a scenario and a
/// `dlog simulate --events` file share this format.
StatusOr<ScenarioEvent> ParseEventLine(const std::string& line, int lineno);

/// A self-contained, replayable chaos run: engine configuration, program
/// text, the injection trace and the fault schedule. Everything a run
/// depends on is in here (plus the code version), so `dlog replay` of a
/// saved scenario is bit-exact. Serialized as a small text format
/// (docs/FAULTS.md):
///
///     # deduce chaos scenario v2
///     seed 42
///     grid 4
///     ...
///     [program]
///     t(K, A, B) :- r(K, A), s(K, B).
///     [events]
///     1000 3 + r(1, 3, 7).
///     [faults]
///     cut 200000 0,1 -> 2,3
///     heal 500000 0,1 -> 2,3
///     corrupt 100000 * -> * rate=0.2
///     slow 100000 5 stall=20000
///     squeeze 300000 factor=0.5
///     storm 150000 7 count=40 pred=r
///     [end]
///
/// Format v3 adds an optional `[perturb]` section of counterfactual
/// perturbation clauses (counterfactual/perturb.h). Perturbations are
/// *declarative*: RunScenario materializes them (ApplyPerturbations)
/// before running, so a saved perturbed world replays standalone and the
/// text form never double-applies. ToText emits the v3 header only when
/// perturbations are present, keeping every committed v1/v2 reproducer
/// byte-identical.
///
/// FromText accepts v1 (pre-overload, no budget header keys), v2, and v3
/// files; an unknown future version, unknown fault kind, or unknown
/// perturbation kind is a parse error, never best-effort (`dlog replay`
/// exits 2). So is a malformed header value or fault option: numbers parse
/// whole (ParseNumber), booleans are 0 or 1, and the error names the line.
struct Scenario {
  uint64_t seed = 1;        ///< Network RNG seed.
  int grid = 4;             ///< Grid side; topology is grid x grid.
  double loss = 0.0;        ///< LinkModel Bernoulli per-hop loss.
  int retries = 0;          ///< LinkModel MAC retries.
  bool reliable = false;    ///< End-to-end reliable transport.
  bool repair = false;      ///< Reboot-resync repair.
  SimTime anti_entropy_period = 0;
  bool checksum = false;    ///< Per-hop frame checksums.
  double rto_jitter = 0.0;  ///< TransportOptions::rto_jitter.
  /// TransportOptions::retraction (deletion-critical requeue protocol).
  /// Absent from pre-protocol scenario files; FromText defaults it off,
  /// so committed reproducers keep replaying bit-exactly.
  bool retraction = false;
  std::string storage = "row";  ///< row|broadcast|local|centroid.
  /// Overload budgets (format v2; see EngineOptions::budget). All off /
  /// zero in v1 files, keeping committed reproducers bit-exact.
  bool budget = false;
  uint64_t budget_replicas = 0;   ///< Live replicas per predicate per node.
  uint64_t budget_inflight = 0;   ///< In-flight reliable envelopes per node.
  uint64_t budget_eval = 0;       ///< Join-pass launches per storage event.
  uint64_t budget_ingress = 0;    ///< Open injection admissions per node.
  std::string shed_policy = "newest";  ///< newest|farthest|reject.
  std::string program;          ///< Datalog source text.
  std::vector<ScenarioEvent> events;
  FaultPlan faults;
  /// Counterfactual perturbations (format v3 `[perturb]` section), applied
  /// by RunScenario via ApplyPerturbations. Empty for v1/v2 files.
  std::vector<Perturbation> perturbations;

  /// Deterministic text form: same scenario -> byte-identical text.
  std::string ToText() const;
  static StatusOr<Scenario> FromText(const std::string& text);
  Status Save(const std::string& path) const;
  static StatusOr<Scenario> Load(const std::string& path);
};

/// Everything a finished scenario run yields: the invariant verdict, the
/// distributed result set, the fault-free oracle, and the counters the
/// replay report prints.
struct ScenarioOutcome {
  InvariantReport report;
  Database results;  ///< Alive derived facts of the chaos run.
  Database oracle;   ///< Centralized fault-free results (soundness bound).
  /// The undegraded subset of `results` (never touched by a repair-resync
  /// or shedding pass) — the set counterfactual diffs compare.
  Database undegraded;
  NetworkStats net;
  uint64_t decode_errors = 0;
  uint64_t retransmissions = 0;
  uint64_t gave_up = 0;
  uint64_t repaired = 0;
  SimTime quiesce_time = 0;
  /// Overload counters; reported (and nonzero) only when the scenario ran
  /// with budgets on, so v1 transcripts stay byte-identical.
  bool overload = false;
  uint64_t sheds = 0;
  uint64_t ingress_rejects = 0;
  uint64_t budget_evictions = 0;
  uint64_t budget_squeezes = 0;
  uint64_t deliveries_stalled = 0;
  uint64_t degraded_results = 0;

  /// Deterministic multi-line report (sorted results + counters +
  /// invariant verdict). `dlog replay` prints exactly this, so two runs
  /// of one scenario file diff byte-clean.
  std::string Summary() const;
};

/// Observability knobs for RunScenario. All off by default — the
/// no-options overload is byte-identical to the pre-v3 behavior.
struct ScenarioRunOptions {
  /// Force causal provenance on (counterfactual runs need lineage).
  bool provenance = false;
  /// Per-node lineage ring capacity override (0 = default).
  size_t provenance_capacity = 0;
  /// JSONL trace sink (`dlog replay --trace-out`); null = no tracing.
  TraceWriter* trace = nullptr;
  /// Metrics sink (`dlog replay --metrics-out`); null = no metrics.
  MetricsRegistry* metrics = nullptr;
};

/// Runs a scenario to quiescence and checks the invariant suite against
/// the centralized oracle. Convergence is checked when anti-entropy ran
/// and no link faults are left installed at quiescence. Scenarios with a
/// `[perturb]` block are materialized through ApplyPerturbations first.
StatusOr<ScenarioOutcome> RunScenario(const Scenario& scenario);
StatusOr<ScenarioOutcome> RunScenario(const Scenario& scenario,
                                      const ScenarioRunOptions& run);

/// Materializes a scenario's perturbations into concrete faults / event
/// edits: node=N,down fails N at t=0; link=A-B,cut cuts both directions at
/// t=0; inject=F,drop removes every event carrying F (an error when none
/// matches — a counterfactual that changes nothing explains nothing);
/// budget=kind,K enables budgets with that cap. The result has an empty
/// perturbation list.
StatusOr<Scenario> ApplyPerturbations(const Scenario& scenario);

/// Knobs for SampleScenario (the `dlog chaos` flags).
struct ChaosProfile {
  int grid = 4;
  int events = 40;          ///< Injections to sample.
  SimTime horizon = 2000000;  ///< Injections spread over [0, horizon).
  double loss = 0.0;
  bool reliable = true;
  bool repair = false;
  SimTime anti_entropy_period = 0;
  bool checksum = true;
  double rto_jitter = 0.1;
  /// Deletion-critical requeue protocol (`dlog chaos --retraction`).
  bool retraction = false;
  /// Overload sampling (`dlog chaos --overload`): budgets on with tight
  /// caps, shed policy drawn from the seed, and the fault schedule drawn
  /// from the storm/straggler/squeeze axes instead of the link axes.
  /// Implies retraction (the deletion-critical requeue keeps shed runs
  /// phantom-free).
  bool overload = false;
};

/// Samples a random two-stream-join workload plus an adversarial fault
/// schedule (partitions, corruption, duplication, delay jitter, churn,
/// reboot storms), all drawn deterministically from `seed`.
Scenario SampleScenario(uint64_t seed, const ChaosProfile& profile);

/// Result of greedy schedule shrinking.
struct ShrinkResult {
  Scenario scenario;  ///< Minimal scenario still violating an invariant.
  int runs = 0;       ///< Candidate re-executions performed.
  int removed = 0;    ///< Events removed from the original schedule.
};

/// Delta-debugs a violating scenario: repeatedly tries removing each
/// fault event and each injection, keeping any removal that preserves a
/// violation, until a fixpoint (1-minimal under single-event removal).
/// The input must already violate (RunScenario(...).report.ok() false).
StatusOr<ShrinkResult> ShrinkScenario(const Scenario& scenario);

}  // namespace deduce

#endif  // DEDUCE_ENGINE_SCENARIO_H_
