// One benchmark repetition: builds a workload's inputs from its seed, runs
// them through the public API (Topology, Network, DistributedEngine::
// Create / Inject, Simulator::RunUntil / Run, ResultFacts) in this fresh
// process, checks the results against the centralized oracle and prints
// one JSON object: deterministic counters, end-to-end timings and, with
// --traced, the per-layer ledger. perfbench/run.py runs it repeatedly and
// summarises the repetitions.
//
// Usage: deduce_perfbench --workload NAME [--seed N] [--traced]
//                         [--run-id N] [--ledger PATH]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <unordered_set>
#include <vector>

#include "deduce/common/metrics.h"
#include "deduce/common/trace.h"
#include "deduce/datalog/parser.h"
#include "deduce/engine/engine.h"
#include "deduce/engine/plan.h"
#include "deduce/engine/regions.h"
#include "deduce/eval/seminaive.h"
#include "deduce/routing/routing.h"
#include "ledger.h"
#include "replay.h"
#include "workload.h"

namespace deduce::perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Untraced runs repeat setup until this much wall time went into it (at
/// most kMaxSetups times) and report the median, so a sub-millisecond
/// setup is still a steady figure. The last setup is the one that runs.
constexpr double kSetupBudgetS = 0.3;
constexpr int kMaxSetups = 15;
constexpr size_t kSampleFrames = 4096;

/// Counts and discards what is written: the JSONL trace's destination, so
/// the sink's cost is measured without disk I/O.
class CountingBuf : public std::streambuf {
 public:
  uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<uint64_t>(n);
    return n;
  }

 private:
  uint64_t bytes_ = 0;
};

/// The observability sinks of a sinks-on run. Not movable: the trace
/// writer points at the stream, which points at the buffer.
struct Sinks {
  Sinks() : stream(&buf) { trace.OpenStream(&stream); }
  Sinks(const Sinks&) = delete;
  Sinks& operator=(const Sinks&) = delete;

  MetricsRegistry metrics;
  CountingBuf buf;
  std::ostream stream;
  TraceWriter trace;
};

/// One engine on one simulated network. Member order makes destruction
/// release the engine, then the network, then the sinks both write to.
struct Deployment {
  std::unique_ptr<Sinks> sinks;
  std::unique_ptr<Network> net;
  std::unique_ptr<DistributedEngine> engine;
  int topology_draws = 0;
};

/// Re-enacts DistributedEngine::Create's setup phases (engine.cc) through
/// their public calls, in Create's order, one span each: plan compilation,
/// region mapping, the diameter BFS, and the HopDistance walk over every
/// band and column path Create walks. The walk also records its RSS growth.
/// It runs after the real Create, so both walks fill fresh pages, and its
/// state is freed before the stream starts. Returns the plan for the frame
/// replay.
StatusOr<QueryPlan> ReenactCreatePhases(Ledger* ledger,
                                        const Topology& topology,
                                        const Program& program,
                                        const PlannerOptions& planner) {
  ScopedLedgerSpan phases(ledger, "engine.reenact");
  StatusOr<QueryPlan> plan = Status::Internal("not compiled");
  {
    ScopedLedgerSpan span(ledger, "engine.plan");
    plan = CompilePlan(program, BuiltinRegistry::Default(), planner);
  }
  if (!plan.ok()) return plan.status();
  std::unique_ptr<RegionMapper> regions;
  {
    ScopedLedgerSpan span(ledger, "engine.regions");
    regions = std::make_unique<RegionMapper>(&topology);
  }
  {
    ScopedLedgerSpan span(ledger, "net.diameter");
    span.Count("diameter", topology.DiameterHops());
  }
  bool band_walk = false;
  bool column_walk = false;
  bool serpentine_walk = false;
  for (const auto& [pred, pp] : plan->preds) {
    band_walk = band_walk || pp.storage == StoragePolicy::kRow;
  }
  for (const DeltaPlan& d : plan->deltas) {
    column_walk = column_walk || d.strategy == JoinStrategy::kColumnSweep;
    serpentine_walk =
        serpentine_walk || d.strategy == JoinStrategy::kSerpentine;
  }
  auto routing = std::make_unique<RoutingTable>(&topology);
  {
    ScopedLedgerSpan span(ledger, "routing.walk");
    int64_t rss_before = CurrentRssBytes();
    int64_t calls = 0;
    auto walk = [&](const std::vector<NodeId>& path) {
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        ++calls;
        if (routing->HopDistance(path[i], path[i + 1]) < 0) return;
      }
    };
    for (int v = 0; band_walk && v < topology.node_count(); ++v) {
      const std::vector<NodeId>& row = regions->HorizontalPath(v);
      if (!row.empty() && row[0] == v) walk(row);
    }
    for (int v = 0; column_walk && v < topology.node_count(); ++v) {
      walk(regions->VerticalPath(v));
    }
    if (serpentine_walk) walk(regions->SerpentinePath());
    span.Count("hop_distance_calls", calls);
    span.Count("rss_bytes", CurrentRssBytes() - rss_before);
  }
  routing.reset();
  ReleaseFreeMemory();
  return plan;
}

/// Topology + Network + DistributedEngine::Create: the work setup_s times.
/// With a ledger, each step gets a span, and Create's phases are then
/// re-enacted into `*reenacted_plan`.
Status Deploy(const WorkloadSpec& spec, const Seeds& seeds, bool sinks,
              const Program& program, Ledger* ledger,
              QueryPlan* reenacted_plan, Deployment* out) {
  Topology topology;
  {
    ScopedLedgerSpan span(ledger, "net.topology");
    DEDUCE_ASSIGN_OR_RETURN(topology,
                            MakeTopology(spec, &out->topology_draws));
  }
  {
    ScopedLedgerSpan span(ledger, "net.network");
    out->net = std::make_unique<Network>(std::move(topology), LinkModel{},
                                         seeds.network);
    out->net->EnableBatchedDelivery(spec.batched_delivery);
  }
  EngineOptions options;
  options.planner.default_storage = StoragePolicy::kRow;
  if (sinks) {
    out->sinks = std::make_unique<Sinks>();
    options.metrics = &out->sinks->metrics;
    options.trace = &out->sinks->trace;
  }
  {
    ScopedLedgerSpan span(ledger, "engine.create");
    int64_t rss_before = ledger == nullptr ? 0 : CurrentRssBytes();
    DEDUCE_ASSIGN_OR_RETURN(out->engine, DistributedEngine::Create(
                                             out->net.get(), program, options));
    if (ledger != nullptr) {
      span.Count("rss_bytes", CurrentRssBytes() - rss_before);
    }
  }
  if (ledger != nullptr) {
    DEDUCE_ASSIGN_OR_RETURN(
        *reenacted_plan, ReenactCreatePhases(ledger, out->net->topology(),
                                             program, options.planner));
  }
  return Status::OK();
}

struct StreamResult {
  uint64_t inject_failed = 0;
  uint64_t sim_events = 0;
  size_t backlog_max = 0;
  double loop_s = 0;  ///< First Inject to quiescence.
};

/// Replays the open-loop stream as a batch in host time: advance the
/// simulator to each update's due time, inject it, and finally run to
/// quiescence.
StreamResult RunStream(Deployment* dep, const std::vector<Update>& updates,
                       Ledger* ledger) {
  StreamResult out;
  Simulator& sim = dep->net->sim();
  ScopedLedgerSpan loop(ledger, "loop");
  int64_t start = NowNs();
  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    {
      ScopedLedgerSpan span(ledger, "net.sim");
      uint64_t events = sim.RunUntil(u.time);
      out.sim_events += events;
      span.Count("events", static_cast<int64_t>(events));
    }
    out.backlog_max = std::max(out.backlog_max, sim.pending());
    if (i == 0) start = NowNs();
    Status st;
    {
      ScopedLedgerSpan span(ledger, "engine.inject");
      st = dep->engine->Inject(u.node, u.op, u.fact);
    }
    if (!st.ok() && out.inject_failed++ == 0) {
      std::fprintf(stderr, "inject: %s\n", st.ToString().c_str());
    }
  }
  {
    ScopedLedgerSpan span(ledger, "net.sim");
    uint64_t events = sim.Run();
    out.sim_events += events;
    span.Count("events", static_cast<int64_t>(events));
  }
  out.loop_s = static_cast<double>(NowNs() - start) * 1e-9;
  loop.Count("updates", static_cast<int64_t>(updates.size()));
  loop.Count("hops", static_cast<int64_t>(dep->net->stats().TotalMessages()));
  return out;
}

/// Compares the distributed results with the centralized evaluation of the
/// program over the facts still live at the end of the stream.
bool MatchesOracle(const Program& program, const std::vector<Update>& updates,
                   const std::vector<Fact>& results, size_t* oracle_results) {
  StatusOr<Database> db = EvaluateProgram(program, LiveFacts(updates));
  if (!db.ok()) {
    std::fprintf(stderr, "oracle: %s\n", db.status().ToString().c_str());
    return false;
  }
  const std::vector<Fact>& expected =
      db->Relation(Intern(kResultPredicate));
  *oracle_results = expected.size();
  std::unordered_set<Fact, FactHash> got(results.begin(), results.end());
  std::unordered_set<Fact, FactHash> want(expected.begin(), expected.end());
  bool match = got.size() == results.size() && got == want;
  if (!match) {
    std::fprintf(stderr,
                 "oracle mismatch: %zu results (%zu distinct), %zu expected\n",
                 results.size(), got.size(), want.size());
    int shown = 0;
    for (const Fact& f : got) {
      if (want.count(f) == 0 && shown++ < 5) {
        std::fprintf(stderr, "  unexpected %s\n", f.ToString().c_str());
      }
    }
    for (const Fact& f : want) {
      if (got.count(f) == 0 && shown++ < 10) {
        std::fprintf(stderr, "  missing %s\n", f.ToString().c_str());
      }
    }
  }
  return match;
}

/// Per-node load (messages sent plus received), hottest first.
std::vector<uint64_t> NodeLoads(const NetworkStats& stats) {
  std::vector<uint64_t> loads;
  for (const NetworkStats::PerNode& p : stats.per_node) {
    loads.push_back(p.sent_messages + p.received_messages);
  }
  std::sort(loads.begin(), loads.end(), std::greater<>());
  return loads;
}

/// The 95th-percentile node load (at most 5% of nodes carry more), the
/// tail bench_util reports as p95_node_messages. On grid-10k the hottest
/// node swings by a quarter between seeds and the 99th percentile by a
/// tenth; this percentile keeps the hotspot meaning and is steady.
double HotspotLoad(const std::vector<uint64_t>& loads) {
  return static_cast<double>(loads[loads.size() / 20]);
}

uint64_t SentOfType(const NetworkStats& stats, uint16_t type) {
  auto it = stats.sent_by_type.find(type);
  return it == stats.sent_by_type.end() ? 0 : it->second;
}

/// A flat JSON object built field by field.
class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Field(key, buf);
  }
  void Int(const std::string& key, int64_t v) {
    Field(key, std::to_string(v));
  }
  void Str(const std::string& key, const std::string& v) {
    Field(key, "\"" + v + "\"");
  }
  void Object(const std::string& key, const JsonObject& v) {
    Field(key, v.str());
  }
  void Field(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Event-loop figures of one run, taken while its deployment is alive.
struct LoopFigures {
  double sim_s = 0;
  uint64_t hops = 0;
  uint64_t trace_bytes = 0;  ///< 0 with sinks off.
  size_t metric_entries = 0;
};

LoopFigures FiguresOf(const Deployment& dep, const Ledger& ledger) {
  LoopFigures out;
  out.sim_s = ledger.TotalSeconds("net.sim");
  out.hops = dep.net->stats().TotalMessages();
  if (dep.sinks != nullptr) {
    out.trace_bytes = dep.sinks->buf.bytes();
    out.metric_entries = dep.sinks->metrics.size();
  }
  return out;
}

/// Runs the same inputs on a fresh deployment with the sinks flipped,
/// through the same instrumented loop (spans and frame capture), so the
/// two event-loop times differ only in the sinks.
StatusOr<LoopFigures> RunSinksTwin(const WorkloadSpec& spec,
                                   const Seeds& seeds, const Program& program,
                                   const std::vector<Update>& updates) {
  Deployment twin;
  DEDUCE_RETURN_IF_ERROR(Deploy(spec, seeds, !spec.sinks, program,
                                /*ledger=*/nullptr, nullptr, &twin));
  Ledger ledger(0);
  FrameSampler sampler(kSampleFrames);
  twin.net->AddTraceSink(
      [&sampler](const TraceEvent& ev) { sampler.Observe(ev); });
  RunStream(&twin, updates, &ledger);
  return FiguresOf(twin, ledger);
}

/// The per-layer metrics a traced repetition reports.
JsonObject LayerMetrics(const WorkloadSpec& spec, const Ledger& ledger,
                        const NetworkStats& net, const StreamResult& stream,
                        const LoopFigures& measured, const LoopFigures& twin,
                        const ReplayCosts& replay) {
  const LoopFigures& on = spec.sinks ? measured : twin;
  const LoopFigures& off = spec.sinks ? twin : measured;
  double hops = static_cast<double>(measured.hops);
  double sim_s = measured.sim_s;
  double plan_s = ledger.TotalSeconds("engine.plan");
  double regions_s = ledger.TotalSeconds("engine.regions");
  double walk_s = ledger.TotalSeconds("routing.walk");
  double diameter_s = ledger.TotalSeconds("net.diameter");
  double create_s = ledger.TotalSeconds("engine.create");
  int64_t sim_events = ledger.TotalCount("net.sim", "events");
  double per_hop_ns = replay.decode_ns + replay.next_hop_ns +
                      (spec.sinks ? replay.attribute_ns : 0.0);

  JsonObject layers;
  layers.Num("net.topology_s", ledger.TotalSeconds("net.topology"));
  layers.Num("net.network_s", ledger.TotalSeconds("net.network"));
  layers.Num("engine.plan_s", plan_s);
  layers.Num("engine.regions_s", regions_s);
  layers.Num("routing.walk_s", walk_s);
  layers.Num("routing.walk_rss_mib",
             static_cast<double>(
                 ledger.TotalCount("routing.walk", "rss_bytes")) /
                 kMiB);
  layers.Num("net.diameter_s", diameter_s);
  layers.Num("engine.create_s", create_s);
  layers.Num("engine.create_rss_mib",
             static_cast<double>(
                 ledger.TotalCount("engine.create", "rss_bytes")) /
                 kMiB);
  layers.Num("engine.install_s",
             create_s - plan_s - regions_s - walk_s - diameter_s);
  layers.Num("engine.inject_s", ledger.TotalSeconds("engine.inject"));
  layers.Num("net.sim_s", sim_s);
  layers.Int("net.sim_events", sim_events);
  layers.Num("net.events_per_s", static_cast<double>(sim_events) / sim_s);
  layers.Num("net.ns_per_hop", sim_s * 1e9 / hops);
  layers.Int("net.backlog_max", static_cast<int64_t>(stream.backlog_max));
  layers.Num("net.coalesced_share",
             static_cast<double>(net.frames_coalesced) / hops);
  layers.Int("net.hops", static_cast<int64_t>(measured.hops));
  layers.Int("net.bytes", static_cast<int64_t>(net.TotalBytes()));
  layers.Int("net.hops.store",
             static_cast<int64_t>(SentOfType(net, kStoreMsg)));
  layers.Int("net.hops.sweep",
             static_cast<int64_t>(SentOfType(net, kJoinPassMsg)));
  layers.Int("net.hops.result",
             static_cast<int64_t>(SentOfType(net, kResultMsg)));
  layers.Num("engine.wire.decode_ns", replay.decode_ns);
  layers.Num("engine.wire.encode_ns", replay.encode_ns);
  layers.Num("engine.wire.frame_bytes", replay.frame_bytes);
  layers.Num("routing.next_hop_ns", replay.next_hop_ns);
  layers.Num("routing.next_hop_cold_ns", replay.next_hop_cold_ns);
  layers.Num("engine.observe.attribute_ns", replay.attribute_ns);
  layers.Num("engine.loop_residual_share",
             1.0 - hops * per_hop_ns * 1e-9 / sim_s);
  layers.Num("engine.observe.overhead", on.sim_s / off.sim_s - 1.0);
  layers.Num("common.trace.bytes_per_hop",
             static_cast<double>(on.trace_bytes) / hops);
  layers.Int("common.metrics.entries",
             static_cast<int64_t>(on.metric_entries));
  layers.Num("eval.oracle_s", ledger.TotalSeconds("eval.oracle"));
  layers.Int("twin.hops", static_cast<int64_t>(twin.hops));
  return layers;
}

std::string LedgerRows(const Ledger& ledger) {
  std::string rows = "[";
  for (const Ledger::Row& row : ledger.Rollup()) {
    JsonObject r;
    r.Str("name", row.name);
    r.Int("spans", row.spans);
    r.Num("total_s", row.total_s);
    r.Num("self_s", row.self_s);
    rows += (rows.size() == 1 ? "" : ",") + r.str();
  }
  return rows + "]";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  int run_id = 0;
  std::string ledger_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: deduce_perfbench --workload NAME [--seed N] "
               "[--traced] [--run-id N] [--ledger PATH]\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(64);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      args.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (arg == "--run-id" && has_value) {
      args.run_id = std::atoi(argv[++i]);
    } else if (arg == "--ledger" && has_value) {
      args.ledger_path = argv[++i];
    } else if (arg == "--traced") {
      args.traced = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (FindWorkload(args.workload) == nullptr) Usage("unknown --workload");
  return args;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  StatusOr<Program> program = ParseProgram(kJoinProgram);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n", program.status().ToString().c_str());
    return 1;
  }
  Seeds seeds = DeriveSeeds(args.seed);
  Ledger ledger(args.run_id);
  Ledger* trace = args.traced ? &ledger : nullptr;
  auto root = std::make_unique<ScopedLedgerSpan>(trace, "run");

  std::vector<Update> updates;
  {
    ScopedLedgerSpan span(trace, "bench.input");
    int nodes = spec.grid_side > 0 ? spec.grid_side * spec.grid_side
                                   : spec.rgg_nodes;
    updates = MakeUpdates(spec, nodes, seeds.updates);
  }

  // Setup. An untraced repetition repeats it (see kSetupBudgetS).
  std::unique_ptr<Deployment> dep;
  QueryPlan plan;
  std::vector<double> setups;
  int64_t total_start = 0;
  double setup_spent = 0;
  do {
    dep.reset();
    auto fresh = std::make_unique<Deployment>();
    total_start = NowNs();
    Status st;
    {
      ScopedLedgerSpan span(trace, "setup");
      st = Deploy(spec, seeds, spec.sinks, *program, trace, &plan,
                  fresh.get());
    }
    double seconds = static_cast<double>(NowNs() - total_start) * 1e-9;
    if (!st.ok()) {
      std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
      return 1;
    }
    setups.push_back(seconds);
    setup_spent += seconds;
    dep = std::move(fresh);
  } while (!args.traced && setup_spent < kSetupBudgetS &&
           static_cast<int>(setups.size()) < kMaxSetups);
  std::sort(setups.begin(), setups.end());
  int64_t rss_setup = CurrentRssBytes();

  FrameSampler sampler(kSampleFrames);
  if (args.traced) {
    dep->net->AddTraceSink(
        [&sampler](const TraceEvent& ev) { sampler.Observe(ev); });
  }
  StreamResult stream = RunStream(dep.get(), updates, trace);
  int64_t rss_quiesce = CurrentRssBytes();
  std::vector<Fact> results;
  {
    ScopedLedgerSpan span(trace, "engine.collect");
    results = dep->engine->ResultFacts(Intern(kResultPredicate));
  }
  double total_s = static_cast<double>(NowNs() - total_start) * 1e-9;

  size_t oracle_results = 0;
  bool oracle_match = false;
  {
    ScopedLedgerSpan span(trace, "eval.oracle");
    oracle_match = MatchesOracle(*program, updates, results, &oracle_results);
  }

  // A copy: the traced path frees the network before reporting.
  const NetworkStats net = dep->net->stats();
  const EngineStats& engine = dep->engine->stats();
  for (size_t i = 0; i < engine.errors.size() && i < 5; ++i) {
    std::fprintf(stderr, "engine error: %s\n", engine.errors[i].c_str());
  }
  std::vector<uint64_t> loads = NodeLoads(net);
  JsonObject counts;
  counts.Int("updates", static_cast<int64_t>(updates.size()));
  counts.Int("inject_failed", static_cast<int64_t>(stream.inject_failed));
  counts.Int("engine_errors", static_cast<int64_t>(engine.errors.size()));
  counts.Int("oracle_match", oracle_match ? 1 : 0);
  counts.Int("results", static_cast<int64_t>(results.size()));
  counts.Int("oracle_results", static_cast<int64_t>(oracle_results));
  counts.Int("hops", static_cast<int64_t>(net.TotalMessages()));
  counts.Int("bytes", static_cast<int64_t>(net.TotalBytes()));
  counts.Int("hotspot_max_msgs", static_cast<int64_t>(loads.front()));
  counts.Num("hotspot_msgs", HotspotLoad(loads));
  counts.Int("replicas", static_cast<int64_t>(dep->engine->TotalReplicas()));
  counts.Int("max_node_replicas",
             static_cast<int64_t>(dep->engine->MaxNodeReplicas()));
  counts.Int("derivations",
             static_cast<int64_t>(dep->engine->TotalDerivations()));
  counts.Int("sim_events", static_cast<int64_t>(stream.sim_events));
  counts.Int("join_passes", static_cast<int64_t>(engine.join_passes));
  counts.Int("pass_messages", static_cast<int64_t>(engine.pass_messages));
  counts.Int("results_emitted", static_cast<int64_t>(engine.results_emitted));
  counts.Int("frames_coalesced", static_cast<int64_t>(net.frames_coalesced));
  counts.Int("hops_store", static_cast<int64_t>(SentOfType(net, kStoreMsg)));
  counts.Int("hops_sweep",
             static_cast<int64_t>(SentOfType(net, kJoinPassMsg)));
  counts.Int("hops_result", static_cast<int64_t>(SentOfType(net, kResultMsg)));
  counts.Int("backlog_max", static_cast<int64_t>(stream.backlog_max));
  counts.Int("topology_draws", dep->topology_draws);

  JsonObject timings;
  timings.Num("setup_s", setups[setups.size() / 2]);
  timings.Int("setup_runs", static_cast<int64_t>(setups.size()));
  timings.Num("loop_s", stream.loop_s);
  timings.Num("total_s", total_s);
  timings.Num("peak_rss_mib", static_cast<double>(PeakRssBytes()) / kMiB);
  timings.Num("rss_setup_mib", static_cast<double>(rss_setup) / kMiB);
  timings.Num("rss_quiesce_mib", static_cast<double>(rss_quiesce) / kMiB);

  JsonObject out;
  out.Str("workload", spec.name);
  out.Int("seed", static_cast<int64_t>(args.seed));
  out.Int("traced", args.traced ? 1 : 0);
  out.Object("counts", counts);
  out.Object("timings", timings);
  if (!args.traced) {
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // Traced only: the sinks twin and the frame replay run after the main
  // deployment is freed, so their memory does not stack on its peak.
  LoopFigures measured = FiguresOf(*dep, ledger);
  Topology topology = dep->net->topology();
  dep.reset();
  ReleaseFreeMemory();
  StatusOr<LoopFigures> twin = Status::Internal("not run");
  {
    ScopedLedgerSpan span(trace, "observe.twin");
    twin = RunSinksTwin(spec, seeds, *program, updates);
  }
  if (!twin.ok()) {
    std::fprintf(stderr, "sinks twin: %s\n", twin.status().ToString().c_str());
    return 1;
  }
  ReleaseFreeMemory();
  ReplayCosts replay;
  {
    ScopedLedgerSpan span(trace, "replay");
    replay = ReplayFrames(sampler.frames(), topology, plan);
  }
  root.reset();

  out.Object("layers",
             LayerMetrics(spec, ledger, net, stream, measured, *twin, replay));
  out.Field("ledger", LedgerRows(ledger));
  if (!args.ledger_path.empty() && !ledger.Write(args.ledger_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.ledger_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace deduce::perfbench

int main(int argc, char** argv) {
  return deduce::perfbench::Run(deduce::perfbench::ParseArgs(argc, argv));
}
