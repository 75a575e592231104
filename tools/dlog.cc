// dlog — command-line front end for the deduce library.
//
//   dlog check <program.dlog>
//       Parse, analyze and compile the program; print the predicate
//       dependency analysis and the distributed query plan.
//
//   dlog eval <program.dlog> [--query 'goal(...)'] [--magic]
//       Centralized bottom-up evaluation; prints every derived relation,
//       or the answers to --query (optionally via the magic-set transform).
//
//   dlog simulate <program.dlog> --events <events file> [--grid N]
//       [--storage row|broadcast|local|centroid] [--loss P] [--seed S]
//       [--seeds N] [--threads N]
//       [--reliable] [--repair] [--anti-entropy-period US]
//       [--trace trace.csv] [--trace-out trace.jsonl]
//       [--metrics-out metrics.json] [--metrics-interval US]
//       [--provenance]
//       Compile onto an N x N simulated sensor grid, inject the event
//       trace, run to quiescence, print derived results and network cost.
//       --trace-out writes the structured JSONL trace (one record per
//       transmission/injection/retransmission, with phase and predicate
//       attribution); --metrics-out writes the metrics-registry snapshot.
//       --provenance threads causal trace ids through the run: the trace
//       gains schema-v2 "deriv" lineage records and tid'd hops/injects
//       (dlog explain's input). --metrics-interval US turns --metrics-out
//       into a JSONL series: one time-resolved registry row every US of
//       simulated time plus a final end-of-run snapshot row.
//       --seeds N sweeps N consecutive seeds starting at --seed and prints
//       one summary row per seed (trials run on --threads workers, rows
//       always in seed order; incompatible with --trace/--trace-out/
//       --metrics-out, which describe a single run).
//       --program extra.dlog (repeatable) and/or --tenants K multiplex
//       several tenant programs onto one shared engine (MultiTenantEngine,
//       DESIGN.md §13): output becomes one "== tenant tN ==" relation
//       section per tenant plus a "% tenancy:" summary line with the
//       shared-sub-plan counters. With one program --tenants K replicates
//       it to K overlapping tenants; with several programs K must match.
//
//   dlog stats <trace.jsonl> [--latency]
//       Aggregate a JSONL trace into per-phase / per-predicate message and
//       byte tables. --latency adds the per-predicate end-to-end latency /
//       bytes-per-result table (needs a --provenance trace).
//
//   dlog stats <metrics.json> --metrics
//       Aggregate a --metrics-out snapshot into a component/name/total
//       table (counters and gauges summed across nodes, sorted) — the
//       greppable form CI counter assertions use.
//
//   dlog explain <program.dlog> --fact 'pred(args)'
//       (--trace-in trace.jsonl | --events <file> [sim flags])
//       Reconstruct and pretty-print the causal tree of a result tuple:
//       rules fired, nodes visited, attributed hops/bytes/retransmissions,
//       and injection-to-generation latency. Reads a --provenance trace
//       (--trace-in), or runs the simulation in-process with provenance
//       forced on (--events plus the usual simulate flags).
//
//   dlog chaos [--seed S] [--grid N] [--injections N] [--horizon US]
//       [--loss P] [--no-reliable] [--repair] [--anti-entropy-period US]
//       [--no-checksum] [--retraction] [--rto-jitter X]
//       [--out scenario.txt] [--no-shrink]
//       Adversarial fault injection: sample a random fault schedule
//       (partitions, corruption, duplication, delay jitter, churn, reboot
//       storms) and workload from --seed, run to quiescence and check the
//       invariant suite against the fault-free oracle (docs/FAULTS.md).
//       On a violation the schedule is delta-debugged down to a minimal
//       reproducer (greedy event removal, re-running each candidate) and,
//       with --out, saved as a replayable scenario file; exit code 3.
//       Output is deterministic: two runs of one seed are byte-identical.
//
//   dlog replay <scenario.txt> [--trace-out trace.jsonl]
//       [--metrics-out m.json] [--provenance]
//       [--provenance-capacity K]
//       Re-execute a saved chaos scenario bit-exactly and re-check the
//       invariant suite; prints the same deterministic report every run.
//       --trace-out / --metrics-out capture the run's JSONL trace and
//       metrics-registry snapshot (same formats as simulate). When the
//       replay violates an invariant, the scenario is re-run with
//       provenance forced on and every violating tuple's causal chain is
//       printed (rules fired, nodes visited, retractions that entered the
//       system but never took effect); exit stays 3.
//
//   dlog replay --diff <base.scn> <perturbed.scn> [--threads N]
//       [--json out.jsonl]
//       Counterfactual diff of two saved scenarios: run both worlds with
//       provenance on and print the ChangeExplanation (appeared / vanished
//       / flipped tuples with divergence attribution, per-predicate cost
//       deltas reconciling with `dlog stats`). --json writes the
//       schema-v3 "cfdiff" JSONL records.
//
//   dlog explain --counterfactual '<spec>' <scenario.scn> [--threads N]
//       [--json out.jsonl] [--out perturbed.scn]
//       [--provenance-capacity K]
//       The counterfactual tentpole (DESIGN.md §14): parse a perturbation
//       spec — ';'-separated clauses 'node=N,down', 'link=A-B,cut',
//       'inject=<fact>,drop', 'budget=<kind>,K' — replay the scenario
//       twice (base and perturbed worlds, deterministically,
//       byte-identical at any --threads) and print what changed, why
//       (first divergent derivation edge per tuple), and what it cost. --out saves the perturbed world as a
//       standalone v3 scenario file; --json writes the cfdiff JSONL.
//       Exit 2 on an unparseable spec or scenario, 3 when the diff fails
//       its own soundness check.
//
// Events file: one event per line,
//     <time_us> <node> + <fact>.
//     <time_us> <node> - <fact>.
// '#' starts a comment.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "deduce/common/metrics.h"
#include "deduce/common/parallel.h"
#include "deduce/common/strings.h"
#include "deduce/common/trace.h"
#include "deduce/datalog/analysis.h"
#include "deduce/datalog/parser.h"
#include "deduce/engine/counterfactual/attribution.h"
#include "deduce/engine/counterfactual/counterfactual.h"
#include "deduce/engine/counterfactual/perturb.h"
#include "deduce/engine/engine.h"
#include "deduce/engine/provenance.h"
#include "deduce/engine/scenario.h"
#include "deduce/eval/magic.h"
#include "deduce/eval/seminaive.h"

using namespace deduce;

namespace {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return StatusOr<std::string>(
        Status::NotFound("cannot open file: " + path));
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int Fail(const Status& status) {
  std::fprintf(stderr, "dlog: %s\n", status.ToString().c_str());
  return 1;
}

void PrintRelations(const Database& db) {
  for (SymbolId pred : db.Predicates()) {
    std::printf("%% %s: %zu facts\n", SymbolName(pred).c_str(),
                db.RelationSize(pred));
    for (const Fact& f : db.Relation(pred)) {
      std::printf("%s.\n", f.ToString().c_str());
    }
  }
}

int CmdCheck(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status());
  auto program = ParseProgram(*text);
  if (!program.ok()) return Fail(program.status());
  Program p = std::move(program).value();
  BuiltinRegistry registry = BuiltinRegistry::Default();
  Status st = ResolveBuiltins(&p, registry);
  if (!st.ok()) return Fail(st);
  auto analysis = AnalyzeProgram(p);
  if (!analysis.ok()) return Fail(analysis.status());
  std::printf("== analysis ==\n%s\n", analysis->ToString().c_str());
  auto plan = CompilePlan(p, registry, PlannerOptions{});
  if (!plan.ok()) {
    std::printf("== distributed plan ==\nnot compilable: %s\n",
                plan.status().ToString().c_str());
    return 0;
  }
  std::printf("== distributed plan ==\n%s", plan->ToString().c_str());
  return 0;
}

int CmdEval(const std::string& path, const std::string& query_text,
            bool use_magic) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status());
  auto program = ParseProgram(*text);
  if (!program.ok()) return Fail(program.status());

  if (!query_text.empty()) {
    auto goal_term = ParseTerm(query_text);
    if (!goal_term.ok()) return Fail(goal_term.status());
    if (!goal_term->is_function()) {
      return Fail(Status::InvalidArgument("query must be an atom"));
    }
    Atom goal(goal_term->functor(), goal_term->args());
    if (use_magic) {
      auto answers = MagicEvaluate(*program, goal, {});
      if (!answers.ok()) return Fail(answers.status());
      for (const Fact& f : *answers) std::printf("%s.\n", f.ToString().c_str());
      return 0;
    }
    auto db = EvaluateProgram(*program, {});
    if (!db.ok()) return Fail(db.status());
    BuiltinRegistry registry = BuiltinRegistry::Default();
    for (const Fact& f : db->Relation(goal.predicate)) {
      Subst subst;
      if (SolveMatchTerms(goal.args, f.args(), &subst, registry)) {
        std::printf("%s.\n", f.ToString().c_str());
      }
    }
    return 0;
  }

  EvalStats stats;
  auto db = EvaluateProgram(*program, {}, {}, &stats);
  if (!db.ok()) return Fail(db.status());
  PrintRelations(*db);
  std::fprintf(stderr,
               "%% derived=%llu firings=%llu probes=%llu iterations=%llu\n",
               static_cast<unsigned long long>(stats.facts_derived),
               static_cast<unsigned long long>(stats.rule_firings),
               static_cast<unsigned long long>(stats.probes),
               static_cast<unsigned long long>(stats.iterations));
  return 0;
}

/// Reads an events file: one `<time> <node> +|- <fact>.` line each
/// (ParseEventLine); blank, '#' and '%' lines are skipped.
StatusOr<std::vector<ScenarioEvent>> ParseEvents(const std::string& text) {
  std::vector<ScenarioEvent> out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string trimmed(StrTrim(line));
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '%') continue;
    auto ev = ParseEventLine(trimmed, lineno);
    if (!ev.ok()) return StatusOr<std::vector<ScenarioEvent>>(ev.status());
    out.push_back(std::move(*ev));
  }
  return out;
}

/// The engine options and link model that `simulate` (single-run, tenant
/// and sweep paths alike) and `explain` build from their shared flags.
struct SimConfig {
  EngineOptions options;
  LinkModel link;
};

StatusOr<SimConfig> SimConfigFromFlags(const std::string& storage,
                                       double loss, bool reliable,
                                       const RepairOptions& repair,
                                       bool provenance, long prov_capacity) {
  SimConfig c;
  c.options.transport.reliable = reliable;
  c.options.repair = repair;
  c.options.provenance.enabled = provenance;
  if (prov_capacity > 0) {
    c.options.provenance.ring_capacity = static_cast<size_t>(prov_capacity);
  }
  if (!StoragePolicyFromName(storage, &c.options.planner.default_storage)) {
    return StatusOr<SimConfig>(
        Status::InvalidArgument("unknown --storage " + storage));
  }
  c.link.loss_rate = loss;
  if (loss > 0) c.link.retries = 2;
  return c;
}

/// Resolves the simulate tenancy flags into the per-tenant program list.
/// `paths` is the positional program plus every repeated --program, in
/// order; tenants are named t0..t(k-1). With --tenants k and a single
/// program the one program is replicated to k tenants (the fully
/// overlapping workload); with multiple programs k must match.
StatusOr<std::vector<TenantProgram>> LoadTenantPrograms(
    const std::vector<std::string>& paths, long tenants) {
  size_t k = tenants > 0 ? static_cast<size_t>(tenants) : paths.size();
  if (paths.size() > 1 && k != paths.size()) {
    return StatusOr<std::vector<TenantProgram>>(Status::InvalidArgument(
        StrFormat("--tenants %zu does not match the %zu programs given",
                  k, paths.size())));
  }
  std::vector<TenantProgram> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const std::string& p = paths.size() == 1 ? paths[0] : paths[i];
    auto text = ReadFile(p);
    if (!text.ok()) {
      return StatusOr<std::vector<TenantProgram>>(text.status());
    }
    auto program = ParseProgram(*text);
    if (!program.ok()) {
      return StatusOr<std::vector<TenantProgram>>(program.status());
    }
    TenantProgram tp;
    tp.tenant = StrFormat("t%zu", i);
    tp.program = std::move(*program);
    out.push_back(std::move(tp));
  }
  return out;
}

int CmdSimulate(const std::string& path, const std::string& events_path,
                int grid, const SimConfig& sim, uint64_t seed,
                long metrics_interval, const std::string& trace_path,
                const std::string& trace_out_path,
                const std::string& metrics_out_path) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status());
  auto program = ParseProgram(*text);
  if (!program.ok()) return Fail(program.status());
  auto events_text = ReadFile(events_path);
  if (!events_text.ok()) return Fail(events_text.status());
  auto events = ParseEvents(*events_text);
  if (!events.ok()) return Fail(events.status());
  if (metrics_interval > 0 && metrics_out_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--metrics-interval requires --metrics-out"));
  }

  EngineOptions options = sim.options;
  Network net(Topology::Grid(grid), sim.link, seed);
  std::ofstream trace_out;
  if (!trace_path.empty()) {
    trace_out.open(trace_path);
    if (!trace_out) {
      return Fail(Status::NotFound("cannot write trace file " + trace_path));
    }
    trace_out << "time_us,src,dst,type,bytes,attempts,delivered\n";
    net.SetTraceSink([&trace_out](const TraceEvent& ev) {
      trace_out << ev.time << ',' << ev.src << ',' << ev.dst << ','
                << ev.type << ',' << ev.bytes << ',' << ev.attempts << ','
                << (ev.delivered ? 1 : 0) << '\n';
    });
  }
  MetricsRegistry metrics;
  TraceWriter trace_writer;
  if (!trace_out_path.empty()) {
    Status st = trace_writer.OpenFile(trace_out_path);
    if (!st.ok()) return Fail(st);
    options.trace = &trace_writer;
  }
  if (!metrics_out_path.empty()) options.metrics = &metrics;
  auto engine = DistributedEngine::Create(&net, *program, options);
  if (!engine.ok()) return Fail(engine.status());

  // Periodic registry snapshotter: with --metrics-interval the metrics file
  // becomes a JSONL series of {"time":T,"metrics":[...]} rows. Intermediate
  // rows carry the live counters (traffic/pred/transport/repair/prov); the
  // final row (after the stats exports below) is the full end-of-run
  // snapshot. The simulator is driven in interval-sized chunks — no
  // repeating simulator event, so quiescence detection is untouched.
  std::ofstream metrics_series;
  if (metrics_interval > 0) {
    metrics_series.open(metrics_out_path);
    if (!metrics_series) {
      return Fail(
          Status::NotFound("cannot write metrics file " + metrics_out_path));
    }
  }
  SimTime next_snap = metrics_interval;
  auto run_until = [&](SimTime t) {
    while (metrics_interval > 0 && next_snap < t) {
      net.sim().RunUntil(next_snap);
      metrics_series << metrics.ToJsonRow(next_snap) << "\n";
      next_snap += metrics_interval;
    }
    net.sim().RunUntil(t);
  };

  for (const ScenarioEvent& ev : *events) {
    if (ev.node < 0 || ev.node >= net.node_count()) {
      return Fail(Status::OutOfRange(
          StrFormat("event names node %d; grid has %d nodes", ev.node,
                    net.node_count())));
    }
    run_until(ev.time);
    Status st = (*engine)->Inject(ev.node, ev.op, ev.fact);
    if (!st.ok()) {
      std::fprintf(stderr, "dlog: inject %s: %s\n", ev.fact.ToString().c_str(),
                   st.ToString().c_str());
    }
  }
  if (metrics_interval > 0) {
    while (net.sim().pending() > 0) {
      net.sim().RunUntil(next_snap);
      if (net.sim().pending() > 0) {
        metrics_series << metrics.ToJsonRow(next_snap) << "\n";
      }
      next_snap += metrics_interval;
    }
  } else {
    net.sim().Run();
  }

  Database results = (*engine)->ResultDatabase();
  PrintRelations(results);
  std::fprintf(
      stderr,
      "%% network: %llu messages, %llu bytes, %.1f uJ; engine: %llu join "
      "passes, %llu derivations; errors: %zu\n",
      static_cast<unsigned long long>(net.stats().TotalMessages()),
      static_cast<unsigned long long>(net.stats().TotalBytes()),
      net.stats().TotalEnergyMicroJ(),
      static_cast<unsigned long long>((*engine)->stats().join_passes),
      static_cast<unsigned long long>((*engine)->stats().derivations_added),
      (*engine)->stats().errors.size());
  if (options.transport.reliable) {
    const EngineStats& es = (*engine)->stats();
    std::fprintf(
        stderr,
        "%% transport: %llu acks, %llu retransmissions, %llu duplicates "
        "suppressed, %llu gave up, %llu repaired\n",
        static_cast<unsigned long long>(es.acks_received),
        static_cast<unsigned long long>(es.retransmissions),
        static_cast<unsigned long long>(es.duplicates_suppressed),
        static_cast<unsigned long long>(es.gave_up_messages),
        static_cast<unsigned long long>(es.repaired_messages));
  }
  if (options.repair.any()) {
    const EngineStats& es = (*engine)->stats();
    std::fprintf(
        stderr,
        "%% repair: %llu digest rounds, %llu replicas pulled, %llu pushed; "
        "resyncs %llu/%llu (%llu abandoned); %llu degraded results\n",
        static_cast<unsigned long long>(es.repair_digest_rounds),
        static_cast<unsigned long long>(es.repair_replicas_pulled),
        static_cast<unsigned long long>(es.repair_replicas_pushed),
        static_cast<unsigned long long>(es.resyncs_completed),
        static_cast<unsigned long long>(es.resyncs_started),
        static_cast<unsigned long long>(es.resyncs_abandoned),
        static_cast<unsigned long long>(es.degraded_results));
  }
  for (const std::string& e : (*engine)->stats().errors) {
    std::fprintf(stderr, "%% error: %s\n", e.c_str());
  }
  trace_writer.Close();
  if (!metrics_out_path.empty()) {
    net.stats().ExportTo(&metrics);
    (*engine)->stats().ExportTo(&metrics);
    if (metrics_interval > 0) {
      metrics_series << metrics.ToJsonRow(net.sim().now()) << "\n";
    } else {
      std::ofstream mo(metrics_out_path);
      if (!mo) {
        return Fail(
            Status::NotFound("cannot write metrics file " + metrics_out_path));
      }
      mo << metrics.ToJson() << "\n";
    }
  }
  return (*engine)->stats().errors.empty() ? 0 : 2;
}

/// Multi-tenant simulate (--program repeated and/or --tenants k): all
/// tenant programs share one engine (MultiTenantEngine); output is one
/// "== tenant tN ==" relation section per tenant, in tenant order, plus a
/// "%% tenancy:" summary line with the shared-sub-plan counters. The
/// single-tenant path does not go through here — its output stays
/// byte-identical to pre-tenancy dlog.
int CmdSimulateTenants(const std::vector<TenantProgram>& tenants,
                       const std::string& events_path, int grid,
                       const SimConfig& sim, uint64_t seed,
                       const std::string& metrics_out_path) {
  auto events_text = ReadFile(events_path);
  if (!events_text.ok()) return Fail(events_text.status());
  auto events = ParseEvents(*events_text);
  if (!events.ok()) return Fail(events.status());

  EngineOptions options = sim.options;
  Network net(Topology::Grid(grid), sim.link, seed);
  MetricsRegistry metrics;
  if (!metrics_out_path.empty()) options.metrics = &metrics;

  MultiTenantEngine mte(options);
  for (const TenantProgram& tp : tenants) {
    Status st = mte.AddProgram(tp.tenant, tp.program);
    if (!st.ok()) return Fail(st);
  }
  Status st = mte.Start(&net);
  if (!st.ok()) return Fail(st);

  for (const ScenarioEvent& ev : *events) {
    if (ev.node < 0 || ev.node >= net.node_count()) {
      return Fail(Status::OutOfRange(
          StrFormat("event names node %d; grid has %d nodes", ev.node,
                    net.node_count())));
    }
    net.sim().RunUntil(ev.time);
    Status ist = mte.Inject(ev.node, ev.op, ev.fact);
    if (!ist.ok()) {
      std::fprintf(stderr, "dlog: inject %s: %s\n", ev.fact.ToString().c_str(),
                   ist.ToString().c_str());
    }
  }
  net.sim().Run();

  for (const TenantProgram& tp : tenants) {
    std::printf("== tenant %s ==\n", tp.tenant.c_str());
    auto db = mte.ResultDatabase(tp.tenant);
    if (!db.ok()) return Fail(db.status());
    PrintRelations(*db);
  }
  const MultiPlan& mp = mte.multi_plan();
  std::fprintf(
      stderr,
      "%% tenancy: %zu tenants, %llu sub-plans requested, %llu evaluated, "
      "%llu shared\n",
      tenants.size(),
      static_cast<unsigned long long>(mp.subplans_requested),
      static_cast<unsigned long long>(mp.subplans_total),
      static_cast<unsigned long long>(mp.subplans_shared));
  std::fprintf(
      stderr,
      "%% network: %llu messages, %llu bytes, %.1f uJ; engine: %llu join "
      "passes, %llu derivations; errors: %zu\n",
      static_cast<unsigned long long>(net.stats().TotalMessages()),
      static_cast<unsigned long long>(net.stats().TotalBytes()),
      net.stats().TotalEnergyMicroJ(),
      static_cast<unsigned long long>(mte.stats().join_passes),
      static_cast<unsigned long long>(mte.stats().derivations_added),
      mte.stats().errors.size());
  for (const std::string& e : mte.stats().errors) {
    std::fprintf(stderr, "%% error: %s\n", e.c_str());
  }
  if (!metrics_out_path.empty()) {
    net.stats().ExportTo(&metrics);
    mte.stats().ExportTo(&metrics);
    std::ofstream mo(metrics_out_path);
    if (!mo) {
      return Fail(
          Status::NotFound("cannot write metrics file " + metrics_out_path));
    }
    mo << metrics.ToJson() << "\n";
  }
  return mte.stats().errors.empty() ? 0 : 2;
}

/// `--seeds N`: run the same program/events on N consecutive RNG seeds,
/// one summary row per seed. Trials are independent simulations and run
/// on a worker pool; RunTrials reduces (prints) in seed order, so the
/// output is identical for any --threads value. With more than one tenant
/// each trial runs the shared MultiTenantEngine and `results` counts the
/// union of the per-tenant result views.
int CmdSimulateSweep(const std::vector<TenantProgram>& tenants,
                     const std::string& events_path, int grid,
                     const SimConfig& sim, uint64_t base_seed, uint64_t seeds,
                     int threads) {
  auto events_text = ReadFile(events_path);
  if (!events_text.ok()) return Fail(events_text.status());
  auto events = ParseEvents(*events_text);
  if (!events.ok()) return Fail(events.status());

  const EngineOptions& options = sim.options;
  Topology topo = Topology::Grid(grid);
  for (const ScenarioEvent& ev : *events) {
    if (ev.node < 0 || ev.node >= topo.node_count()) {
      return Fail(Status::OutOfRange(
          StrFormat("event names node %d; grid has %d nodes", ev.node,
                    topo.node_count())));
    }
  }

  struct SeedResult {
    uint64_t messages = 0;
    uint64_t bytes = 0;
    double energy_uj = 0;
    SimTime quiesce = 0;
    uint64_t derivations = 0;
    size_t results = 0;
    size_t errors = 0;
  };

  std::printf("%12s  %12s  %12s  %12s  %12s  %12s  %12s  %12s\n", "seed",
              "messages", "bytes", "energy_uj", "quiesce_us", "derived",
              "results", "errors");
  size_t total_errors = 0;
  RunTrials(
      static_cast<size_t>(seeds), threads,
      [&](size_t i) {
        SeedResult r;
        Network net(topo, sim.link, base_seed + i);
        if (tenants.size() == 1) {
          auto engine =
              DistributedEngine::Create(&net, tenants[0].program, options);
          if (!engine.ok()) {
            r.errors = 1;
            return r;
          }
          for (const ScenarioEvent& ev : *events) {
            net.sim().RunUntil(ev.time);
            if (!(*engine)->Inject(ev.node, ev.op, ev.fact).ok()) ++r.errors;
          }
          net.sim().Run();
          r.derivations = (*engine)->stats().derivations_added;
          r.results = (*engine)->ResultDatabase().size();
          r.errors += (*engine)->stats().errors.size();
        } else {
          MultiTenantEngine mte(options);
          for (const TenantProgram& tp : tenants) {
            if (!mte.AddProgram(tp.tenant, tp.program).ok()) {
              r.errors = 1;
              return r;
            }
          }
          if (!mte.Start(&net).ok()) {
            r.errors = 1;
            return r;
          }
          for (const ScenarioEvent& ev : *events) {
            net.sim().RunUntil(ev.time);
            if (!mte.Inject(ev.node, ev.op, ev.fact).ok()) ++r.errors;
          }
          net.sim().Run();
          r.derivations = mte.stats().derivations_added;
          for (const TenantProgram& tp : tenants) {
            auto db = mte.ResultDatabase(tp.tenant);
            if (db.ok()) {
              r.results += db->size();
            } else {
              ++r.errors;
            }
          }
          r.errors += mte.stats().errors.size();
        }
        r.messages = net.stats().TotalMessages();
        r.bytes = net.stats().TotalBytes();
        r.energy_uj = net.stats().TotalEnergyMicroJ();
        r.quiesce = net.sim().now();
        return r;
      },
      [&](size_t i, SeedResult r) {
        total_errors += r.errors;
        std::printf(
            "%12llu  %12llu  %12llu  %12.1f  %12lld  %12llu  %12zu  %12zu\n",
            static_cast<unsigned long long>(base_seed + i),
            static_cast<unsigned long long>(r.messages),
            static_cast<unsigned long long>(r.bytes), r.energy_uj,
            static_cast<long long>(r.quiesce),
            static_cast<unsigned long long>(r.derivations), r.results,
            r.errors);
      });
  return total_errors == 0 ? 0 : 2;
}

int CmdStats(const std::string& path, bool latency) {
  std::ifstream in(path);
  if (!in) return Fail(Status::NotFound("cannot open trace file: " + path));
  std::vector<std::string> errors;
  TraceStats stats = TraceStats::Aggregate(in, &errors);
  std::printf("%s", stats.ToTable().c_str());
  if (latency) {
    std::string table = stats.LatencyTable();
    if (table.empty()) {
      std::printf(
          "\nno deriv records in trace (was it produced with "
          "--provenance?)\n");
    } else {
      std::printf("\n%s", table.c_str());
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "dlog: %s\n", e.c_str());
  }
  return stats.bad_lines > 0 ? 2 : 0;
}

/// `dlog stats <metrics.json> --metrics`: aggregate a metrics-registry
/// snapshot (the --metrics-out file) into a deterministic
/// component/name/total table, counters and gauges summed across nodes and
/// printed in sorted order. This is what CI greps for its counter
/// assertions (e.g. the tenancy job asserting `tenant subplans_shared`).
/// Reads the single-snapshot form; on a --metrics-interval JSONL series it
/// sums every row.
int CmdStatsMetrics(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status());
  // Entries look like
  //   {"node":N,"component":"c","name":"n","kind":"counter","value":V}
  // (metrics.cc ToJson). A targeted scan keeps the CLI free of a JSON
  // dependency: walk "component" keys, read the quoted component/name and
  // the kind, and take "value" for counters and gauges (histograms carry
  // count/sum/buckets instead and are skipped here).
  std::map<std::pair<std::string, std::string>, long long> totals;
  const std::string& s = *text;
  auto quoted = [&](size_t* pos) -> StatusOr<std::string> {
    size_t start = *pos;
    size_t end = s.find('"', start);
    if (end == std::string::npos) {
      return StatusOr<std::string>(
          Status::InvalidArgument("unterminated string in metrics file"));
    }
    *pos = end + 1;
    return s.substr(start, end - start);
  };
  size_t pos = 0;
  size_t bad = 0;
  while ((pos = s.find("\"component\":\"", pos)) != std::string::npos) {
    pos += std::strlen("\"component\":\"");
    auto component = quoted(&pos);
    if (!component.ok()) return Fail(component.status());
    size_t name_at = s.find("\"name\":\"", pos);
    size_t kind_at = s.find("\"kind\":\"", pos);
    if (name_at == std::string::npos || kind_at == std::string::npos) {
      ++bad;
      break;
    }
    size_t npos_ = name_at + std::strlen("\"name\":\"");
    auto name = quoted(&npos_);
    if (!name.ok()) return Fail(name.status());
    size_t kpos = kind_at + std::strlen("\"kind\":\"");
    auto kind = quoted(&kpos);
    if (!kind.ok()) return Fail(kind.status());
    pos = kpos;
    if (*kind != "counter" && *kind != "gauge") continue;
    size_t value_at = s.find("\"value\":", pos);
    if (value_at == std::string::npos) {
      ++bad;
      break;
    }
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(s.c_str() + value_at +
                                   std::strlen("\"value\":"),
                               &end, 10);
    if (errno != 0) {
      ++bad;
      break;
    }
    pos = static_cast<size_t>(end - s.c_str());
    totals[{*component, *name}] += v;
  }
  if (totals.empty() && bad == 0) {
    std::fprintf(stderr,
                 "dlog: no counters in %s (was it produced with "
                 "--metrics-out?)\n",
                 path.c_str());
    return 2;
  }
  std::printf("%-16s %-32s %14s\n", "component", "name", "total");
  for (const auto& [key, total] : totals) {
    std::printf("%-16s %-32s %14lld\n", key.first.c_str(),
                key.second.c_str(), total);
  }
  if (bad > 0) {
    std::fprintf(stderr, "dlog: malformed metrics entry in %s\n",
                 path.c_str());
    return 2;
  }
  return 0;
}

/// Parses '--fact' text ("pred(args)" with an optional trailing '.') into a
/// ground Fact.
StatusOr<Fact> ParseTargetFact(const std::string& fact_text) {
  std::string ft(StrTrim(fact_text));
  if (ft.empty()) {
    return StatusOr<Fact>(
        Status::InvalidArgument("explain requires --fact 'pred(args)'"));
  }
  if (ft.back() != '.') ft += '.';
  auto rule = ParseRule(ft);
  if (!rule.ok()) return rule.status();
  if (!rule->body.empty()) {
    return StatusOr<Fact>(
        Status::InvalidArgument("--fact must be a fact, not a rule"));
  }
  for (const Term& t : rule->head.args) {
    if (!t.is_ground()) {
      return StatusOr<Fact>(Status::InvalidArgument(
          "--fact must be ground (no variables): " + fact_text));
    }
  }
  return Fact(rule->head.predicate, rule->head.args);
}

int CmdExplain(const std::string& path, const std::string& fact_text,
               const std::string& trace_in, const std::string& events_path,
               int grid, const SimConfig& sim, uint64_t seed) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status());
  auto program = ParseProgram(*text);
  if (!program.ok()) return Fail(program.status());
  auto target = ParseTargetFact(fact_text);
  if (!target.ok()) return Fail(target.status());

  std::vector<TraceRecord> records;
  size_t bad = 0;
  auto parse_lines = [&](std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      if (StrTrim(line).empty()) continue;
      StatusOr<TraceRecord> r = TraceRecord::FromJson(line);
      if (r.ok()) {
        records.push_back(std::move(*r));
      } else {
        ++bad;
      }
    }
  };

  if (!trace_in.empty()) {
    std::ifstream in(trace_in);
    if (!in) {
      return Fail(Status::NotFound("cannot open trace file: " + trace_in));
    }
    parse_lines(in);
  } else {
    if (events_path.empty()) {
      return Fail(Status::InvalidArgument(
          "explain needs --trace-in <trace.jsonl> or --events <file>"));
    }
    auto events_text = ReadFile(events_path);
    if (!events_text.ok()) return Fail(events_text.status());
    auto events = ParseEvents(*events_text);
    if (!events.ok()) return Fail(events.status());

    EngineOptions options = sim.options;
    options.provenance.enabled = true;  // explain is the provenance consumer
    Network net(Topology::Grid(grid), sim.link, seed);
    std::ostringstream trace_stream;
    TraceWriter writer;
    writer.OpenStream(&trace_stream);
    options.trace = &writer;
    auto engine = DistributedEngine::Create(&net, *program, options);
    if (!engine.ok()) return Fail(engine.status());
    for (const ScenarioEvent& ev : *events) {
      if (ev.node < 0 || ev.node >= net.node_count()) {
        return Fail(Status::OutOfRange(
            StrFormat("event names node %d; grid has %d nodes", ev.node,
                      net.node_count())));
      }
      net.sim().RunUntil(ev.time);
      Status st = (*engine)->Inject(ev.node, ev.op, ev.fact);
      if (!st.ok()) {
        std::fprintf(stderr, "dlog: inject %s: %s\n",
                     ev.fact.ToString().c_str(), st.ToString().c_str());
      }
    }
    net.sim().Run();
    writer.Close();
    std::istringstream in(trace_stream.str());
    parse_lines(in);
  }
  if (bad > 0) {
    std::fprintf(stderr, "dlog: %zu unparseable trace line(s) skipped\n", bad);
  }

  auto report = ExplainFact(records, *program, *target);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->Format().c_str());
  return 0;
}

int CmdChaos(uint64_t seed, const ChaosProfile& profile, bool shrink,
             const std::string& out_path) {
  Scenario scenario = SampleScenario(seed, profile);
  auto run = RunScenario(scenario);
  if (!run.ok()) return Fail(run.status());
  std::printf("chaos seed=%llu grid=%d injections=%zu fault_events=%zu\n",
              static_cast<unsigned long long>(seed), scenario.grid,
              scenario.events.size(), scenario.faults.events.size());
  std::printf("%s", run->Summary().c_str());
  if (run->report.ok()) {
    if (!out_path.empty()) {
      Status st = scenario.Save(out_path);
      if (!st.ok()) return Fail(st);
      std::fprintf(stderr, "%% scenario saved to %s\n", out_path.c_str());
    }
    return 0;
  }
  Scenario minimal = scenario;
  if (shrink) {
    auto shrunk = ShrinkScenario(scenario);
    if (!shrunk.ok()) return Fail(shrunk.status());
    minimal = std::move(shrunk->scenario);
    std::printf("shrink: runs=%d removed=%d injections=%zu fault_events=%zu\n",
                shrunk->runs, shrunk->removed, minimal.events.size(),
                minimal.faults.events.size());
  }
  if (!out_path.empty()) {
    Status st = minimal.Save(out_path);
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "%% minimal reproducer saved to %s\n",
                 out_path.c_str());
  }
  return 3;
}

/// Pulls the fact text out of an invariant-violation line ("" when the
/// violation names no tuple — convergence and engine-error lines don't).
std::string ViolationFact(const std::string& violation) {
  struct Marker {
    const char* start;
    const char* stop;
  };
  static const Marker kMarkers[] = {
      {"phantom result ", " (not derivable"},
      {"undegraded result ", " not derivable"},
      {"dedup: result ", " stored at node"},
  };
  for (const Marker& m : kMarkers) {
    size_t at = violation.find(m.start);
    if (at == std::string::npos) continue;
    size_t start = at + std::strlen(m.start);
    size_t end = violation.find(m.stop, start);
    if (end == std::string::npos) return "";
    return violation.substr(start, end - start);
  }
  return "";
}

/// On a replay violation: re-run the scenario with provenance forced on
/// (lineage changes no simulated counter, so the violation reproduces
/// bit-exactly) and print each violating tuple's causal chain —
/// AttributeViolation names the rules fired, the nodes visited, and any
/// retraction that entered the system but never took effect.
void PrintViolationAttribution(const Scenario& scenario,
                               const InvariantReport& report) {
  auto program = ParseProgram(scenario.program);
  if (!program.ok()) return;
  std::ostringstream sink;
  TraceWriter writer;
  writer.OpenStream(&sink);
  ScenarioRunOptions run;
  run.provenance = true;
  run.trace = &writer;
  auto outcome = RunScenario(scenario, run);
  writer.Close();
  if (!outcome.ok()) return;
  std::vector<TraceRecord> records = ParseTraceRecords(sink.str());
  bool header = false;
  std::set<std::string> seen;
  for (const std::string& v : report.violations) {
    std::string fact_text = ViolationFact(v);
    if (fact_text.empty() || !seen.insert(fact_text).second) continue;
    auto fact = ParseTargetFact(fact_text);
    if (!fact.ok()) continue;
    if (!header) {
      std::printf("violation attribution (provenance replay):\n");
      header = true;
    }
    std::printf("%s", AttributeViolation(records, *program, *fact).c_str());
  }
}

int CmdReplay(const std::string& path, const std::string& trace_out_path,
              const std::string& metrics_out_path, bool provenance,
              size_t prov_capacity) {
  auto scenario = Scenario::Load(path);
  if (!scenario.ok()) {
    // Parse failures (unknown version, unknown fault kind, unknown
    // perturbation kind, malformed lines) exit 2: distinct from a run that
    // violated invariants (3) and from engine errors (1), so CI can tell
    // "file this build cannot replay" apart from "replay found a bug".
    Fail(scenario.status());
    return 2;
  }
  ScenarioRunOptions run;
  run.provenance = provenance;
  run.provenance_capacity = prov_capacity;
  TraceWriter writer;
  if (!trace_out_path.empty()) {
    Status st = writer.OpenFile(trace_out_path);
    if (!st.ok()) return Fail(st);
    run.trace = &writer;
  }
  MetricsRegistry metrics;
  if (!metrics_out_path.empty()) run.metrics = &metrics;
  auto outcome = RunScenario(*scenario, run);
  writer.Close();
  if (!outcome.ok()) return Fail(outcome.status());
  std::printf("%s", outcome->Summary().c_str());
  if (!metrics_out_path.empty()) {
    std::ofstream mo(metrics_out_path);
    if (!mo) {
      return Fail(
          Status::NotFound("cannot write metrics file " + metrics_out_path));
    }
    mo << metrics.ToJson() << "\n";
  }
  if (outcome->report.ok()) return 0;
  PrintViolationAttribution(*scenario, outcome->report);
  return 3;
}

int CmdCounterfactual(const std::string& spec, const std::string& scn_path,
                      int threads, const std::string& json_out,
                      const std::string& save_path, size_t prov_capacity) {
  auto perturbs = ParsePerturbationSpec(spec);
  if (!perturbs.ok()) {
    // An unparseable spec (unknown perturbation kind, malformed clause) is
    // the same failure class as an unreadable scenario file: exit 2.
    Fail(perturbs.status());
    return 2;
  }
  auto scenario = Scenario::Load(scn_path);
  if (!scenario.ok()) {
    Fail(scenario.status());
    return 2;
  }
  CounterfactualOptions options;
  options.threads = threads;
  options.provenance_capacity = prov_capacity;
  auto result = RunCounterfactual(*scenario, *perturbs, options);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", result->explanation.Format().c_str());
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      return Fail(Status::NotFound("cannot write json file " + json_out));
    }
    out << result->explanation.ToJsonl();
  }
  if (!save_path.empty()) {
    // Saves the *declarative* perturbed world: the base scenario plus the
    // v3 [perturb] block, which RunScenario materializes on replay.
    Status st = result->perturbed.Save(save_path);
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "%% perturbed scenario saved to %s\n",
                 save_path.c_str());
  }
  return result->explanation.soundness.empty() ? 0 : 3;
}

int CmdReplayDiff(const std::string& base_path, const std::string& pert_path,
                  int threads, const std::string& json_out,
                  size_t prov_capacity) {
  auto base = Scenario::Load(base_path);
  if (!base.ok()) {
    Fail(base.status());
    return 2;
  }
  auto perturbed = Scenario::Load(pert_path);
  if (!perturbed.ok()) {
    Fail(perturbed.status());
    return 2;
  }
  CounterfactualOptions options;
  options.threads = threads;
  options.provenance_capacity = prov_capacity;
  auto result = DiffScenarios(*base, *perturbed, options);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", result->explanation.Format().c_str());
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      return Fail(Status::NotFound("cannot write json file " + json_out));
    }
    out << result->explanation.ToJsonl();
  }
  return result->explanation.soundness.empty() ? 0 : 3;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dlog check <program.dlog>\n"
               "  dlog eval <program.dlog> [--query 'goal(...)'] [--magic]\n"
               "  dlog simulate <program.dlog> --events <file> [--grid N]\n"
               "       [--storage row|broadcast|local|centroid] [--loss P]\n"
               "       [--seed S] [--seeds N] [--threads N]\n"
               "       [--reliable] [--repair]\n"
               "       [--anti-entropy-period US] [--trace trace.csv]\n"
               "       [--trace-out trace.jsonl] [--metrics-out m.json]\n"
               "       [--metrics-interval US] [--provenance]\n"
               "       [--program extra.dlog]... [--tenants K]\n"
               "  dlog stats <trace.jsonl> [--latency]\n"
               "  dlog stats <metrics.json> --metrics\n"
               "  dlog explain <program.dlog> --fact 'pred(args)'\n"
               "       (--trace-in trace.jsonl | --events <file> [sim "
               "flags])\n"
               "  dlog explain --counterfactual '<spec>' <scenario.scn>\n"
               "       [--threads N] [--json out.jsonl] [--out saved.scn]\n"
               "       [--provenance-capacity K]\n"
               "       spec: 'node=N,down' | 'link=A-B,cut' |\n"
               "       'inject=<fact>,drop' | 'budget=<kind>,K',\n"
               "       ';'-separated\n"
               "  dlog chaos [--seed S] [--grid N] [--injections N]\n"
               "       [--horizon US] [--loss P] [--no-reliable] [--repair]\n"
               "       [--anti-entropy-period US] [--no-checksum]\n"
               "       [--retraction] [--overload] [--rto-jitter X]\n"
               "       [--out scenario.txt] [--no-shrink]\n"
               "  dlog replay <scenario.txt> [--trace-out trace.jsonl]\n"
               "       [--metrics-out m.json] [--provenance]\n"
               "       [--provenance-capacity K]\n"
               "  dlog replay --diff <base.scn> <perturbed.scn>\n"
               "       [--threads N] [--json out.jsonl]\n");
  return 64;
}

/// Flag parsing through ParseNumber: the whole value must be a number, and
/// it must sit inside [min, max]. std::atoi silently turns "8x8" into 8 and
/// "huge" into 0; these report the bad value and fail instead.
bool ParseIntFlag(const char* flag, const char* v, long min, long max,
                  long* out) {
  if (v == nullptr || *v == '\0') return false;
  long x = 0;
  if (!ParseNumber(v, &x) || x < min || x > max) {
    std::fprintf(stderr, "dlog: invalid value '%s' for %s (expected integer "
                         "in [%ld, %ld])\n", v, flag, min, max);
    return false;
  }
  *out = x;
  return true;
}

bool ParseU64Flag(const char* flag, const char* v, uint64_t* out) {
  if (v == nullptr || !ParseNumber(v, out)) {
    std::fprintf(stderr, "dlog: invalid value '%s' for %s (expected "
                         "non-negative integer)\n", v ? v : "", flag);
    return false;
  }
  return true;
}

bool ParseDoubleFlag(const char* flag, const char* v, double min, double max,
                     double* out) {
  if (v == nullptr || *v == '\0') return false;
  double x = 0;
  if (!ParseNumber(v, &x) || !(x >= min && x <= max)) {
    std::fprintf(stderr, "dlog: invalid value '%s' for %s (expected number "
                         "in [%g, %g])\n", v, flag, min, max);
    return false;
  }
  *out = x;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];

  if (cmd == "chaos") {
    ChaosProfile profile;
    uint64_t seed = 1;
    bool shrink = true;
    std::string out_path;
    long grid = profile.grid;
    long injections = profile.events;
    long horizon = profile.horizon;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      auto next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      if (arg == "--seed") {
        if (!ParseU64Flag("--seed", next(), &seed)) return Usage();
      } else if (arg == "--grid") {
        if (!ParseIntFlag("--grid", next(), 2, 64, &grid)) return Usage();
      } else if (arg == "--injections") {
        if (!ParseIntFlag("--injections", next(), 1, 100'000, &injections)) {
          return Usage();
        }
      } else if (arg == "--horizon") {
        if (!ParseIntFlag("--horizon", next(), 1000, 3'600'000'000L,
                          &horizon)) {
          return Usage();
        }
      } else if (arg == "--loss") {
        if (!ParseDoubleFlag("--loss", next(), 0.0, 1.0, &profile.loss)) {
          return Usage();
        }
      } else if (arg == "--no-reliable") {
        profile.reliable = false;
      } else if (arg == "--repair") {
        profile.repair = true;
      } else if (arg == "--anti-entropy-period") {
        long period = 0;
        if (!ParseIntFlag("--anti-entropy-period", next(), 1,
                          3'600'000'000L, &period)) {
          return Usage();
        }
        profile.anti_entropy_period = period;
      } else if (arg == "--no-checksum") {
        profile.checksum = false;
      } else if (arg == "--retraction") {
        profile.retraction = true;
      } else if (arg == "--overload") {
        profile.overload = true;
      } else if (arg == "--rto-jitter") {
        if (!ParseDoubleFlag("--rto-jitter", next(), 0.0, 1.0,
                             &profile.rto_jitter)) {
          return Usage();
        }
      } else if (arg == "--out") {
        const char* v = next();
        if (!v) return Usage();
        out_path = v;
      } else if (arg == "--no-shrink") {
        shrink = false;
      } else {
        return Usage();
      }
    }
    profile.grid = static_cast<int>(grid);
    profile.events = static_cast<int>(injections);
    profile.horizon = horizon;
    return CmdChaos(seed, profile, shrink, out_path);
  }

  if (argc < 3) return Usage();
  std::string path = argv[2];

  if (cmd == "replay") {
    bool diff = false;
    bool provenance = false;
    std::vector<std::string> paths;
    std::string trace_out, metrics_out, json_out;
    long threads = 1;
    long prov_capacity = 0;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      auto next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      if (arg == "--diff") {
        diff = true;
      } else if (arg == "--provenance") {
        provenance = true;
      } else if (arg == "--trace-out") {
        const char* v = next();
        if (!v) return Usage();
        trace_out = v;
      } else if (arg == "--metrics-out") {
        const char* v = next();
        if (!v) return Usage();
        metrics_out = v;
      } else if (arg == "--json") {
        const char* v = next();
        if (!v) return Usage();
        json_out = v;
      } else if (arg == "--threads") {
        if (!ParseIntFlag("--threads", next(), 1, 1024, &threads)) {
          return Usage();
        }
      } else if (arg == "--provenance-capacity") {
        if (!ParseIntFlag("--provenance-capacity", next(), 1,
                          1'000'000'000L, &prov_capacity)) {
          return Usage();
        }
      } else if (!arg.empty() && arg[0] == '-') {
        return Usage();
      } else {
        paths.push_back(arg);
      }
    }
    if (diff) {
      if (paths.size() != 2 || !trace_out.empty() || !metrics_out.empty()) {
        return Usage();
      }
      return CmdReplayDiff(paths[0], paths[1], static_cast<int>(threads),
                           json_out, static_cast<size_t>(prov_capacity));
    }
    if (paths.size() != 1 || !json_out.empty()) return Usage();
    return CmdReplay(paths[0], trace_out, metrics_out, provenance,
                     static_cast<size_t>(prov_capacity));
  }

  if (cmd == "explain" && path == "--counterfactual") {
    if (argc < 5) return Usage();
    std::string spec = argv[3];
    std::string scn = argv[4];
    std::string json_out, save_path;
    long threads = 1;
    long prov_capacity = 0;
    for (int i = 5; i < argc; ++i) {
      std::string arg = argv[i];
      auto next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      if (arg == "--threads") {
        if (!ParseIntFlag("--threads", next(), 1, 1024, &threads)) {
          return Usage();
        }
      } else if (arg == "--json") {
        const char* v = next();
        if (!v) return Usage();
        json_out = v;
      } else if (arg == "--out") {
        const char* v = next();
        if (!v) return Usage();
        save_path = v;
      } else if (arg == "--provenance-capacity") {
        if (!ParseIntFlag("--provenance-capacity", next(), 1,
                          1'000'000'000L, &prov_capacity)) {
          return Usage();
        }
      } else {
        return Usage();
      }
    }
    return CmdCounterfactual(spec, scn, static_cast<int>(threads), json_out,
                             save_path, static_cast<size_t>(prov_capacity));
  }

  std::string query, events, storage, trace, trace_out, metrics_out;
  std::string fact_text, trace_in;
  std::vector<std::string> extra_programs;
  bool magic = false;
  bool reliable = false;
  bool provenance = false;
  bool latency = false;
  bool metrics_table = false;
  RepairOptions repair;
  long grid = 8;
  double loss = 0;
  long metrics_interval = 0;
  uint64_t seed = 1;
  long seeds = 1;
  long tenants = 0;  // 0 = not set (single-tenant unless --program given)
  long threads = 0;  // 0 = DefaultThreadCount()
  long prov_capacity = 0;  // 0 = ProvenanceOptions default ring size
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--query") {
      const char* v = next();
      if (!v) return Usage();
      query = v;
    } else if (arg == "--magic") {
      magic = true;
    } else if (arg == "--events") {
      const char* v = next();
      if (!v) return Usage();
      events = v;
    } else if (arg == "--grid") {
      if (!ParseIntFlag("--grid", next(), 1, 1024, &grid)) return Usage();
    } else if (arg == "--storage") {
      const char* v = next();
      if (!v) return Usage();
      storage = v;
    } else if (arg == "--reliable") {
      reliable = true;
    } else if (arg == "--repair") {
      repair.enabled = true;
    } else if (arg == "--anti-entropy-period") {
      long period = 0;
      if (!ParseIntFlag("--anti-entropy-period", next(), 1,
                        3'600'000'000L, &period)) {
        return Usage();
      }
      repair.anti_entropy_period = period;
    } else if (arg == "--loss") {
      if (!ParseDoubleFlag("--loss", next(), 0.0, 1.0, &loss)) return Usage();
    } else if (arg == "--seed") {
      if (!ParseU64Flag("--seed", next(), &seed)) return Usage();
    } else if (arg == "--seeds") {
      if (!ParseIntFlag("--seeds", next(), 1, 100'000, &seeds)) {
        return Usage();
      }
    } else if (arg == "--threads") {
      if (!ParseIntFlag("--threads", next(), 1, 1024, &threads)) {
        return Usage();
      }
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return Usage();
      trace = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return Usage();
      trace_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage();
      metrics_out = v;
    } else if (arg == "--metrics-interval") {
      if (!ParseIntFlag("--metrics-interval", next(), 1, 3'600'000'000L,
                        &metrics_interval)) {
        return Usage();
      }
    } else if (arg == "--provenance") {
      provenance = true;
    } else if (arg == "--provenance-capacity") {
      if (!ParseIntFlag("--provenance-capacity", next(), 1, 1'000'000'000L,
                        &prov_capacity)) {
        return Usage();
      }
    } else if (arg == "--latency") {
      latency = true;
    } else if (arg == "--metrics") {
      metrics_table = true;
    } else if (arg == "--program") {
      const char* v = next();
      if (!v) return Usage();
      extra_programs.push_back(v);
    } else if (arg == "--tenants") {
      if (!ParseIntFlag("--tenants", next(), 1, 4096, &tenants)) {
        return Usage();
      }
    } else if (arg == "--fact") {
      const char* v = next();
      if (!v) return Usage();
      fact_text = v;
    } else if (arg == "--trace-in") {
      const char* v = next();
      if (!v) return Usage();
      trace_in = v;
    } else {
      return Usage();
    }
  }

  if (cmd == "check") return CmdCheck(path);
  if (cmd == "eval") return CmdEval(path, query, magic);
  if (cmd == "stats") {
    return metrics_table ? CmdStatsMetrics(path) : CmdStats(path, latency);
  }
  if (cmd != "simulate" && cmd != "explain") return Usage();
  if (cmd == "simulate" && events.empty()) return Usage();
  auto sim = SimConfigFromFlags(storage, loss, reliable, repair, provenance,
                                prov_capacity);
  if (!sim.ok()) return Fail(sim.status());
  if (cmd == "explain") {
    return CmdExplain(path, fact_text, trace_in, events,
                      static_cast<int>(grid), *sim, seed);
  }
  bool multi = !extra_programs.empty() || tenants > 1;
  if (seeds > 1) {
    if (!trace.empty() || !trace_out.empty() || !metrics_out.empty()) {
      std::fprintf(stderr,
                   "dlog: --seeds is incompatible with --trace, "
                   "--trace-out and --metrics-out (per-run outputs)\n");
      return 64;
    }
    int t = threads > 0 ? static_cast<int>(threads) : DefaultThreadCount();
    std::vector<std::string> paths;
    paths.push_back(path);
    paths.insert(paths.end(), extra_programs.begin(), extra_programs.end());
    auto tp = LoadTenantPrograms(paths, tenants);
    if (!tp.ok()) return Fail(tp.status());
    return CmdSimulateSweep(*tp, events, static_cast<int>(grid), *sim, seed,
                            static_cast<uint64_t>(seeds), t);
  }
  if (multi) {
    if (!trace.empty() || !trace_out.empty() || metrics_interval > 0) {
      std::fprintf(stderr,
                   "dlog: --program/--tenants is incompatible with "
                   "--trace, --trace-out and --metrics-interval\n");
      return 64;
    }
    std::vector<std::string> paths;
    paths.push_back(path);
    paths.insert(paths.end(), extra_programs.begin(), extra_programs.end());
    auto tp = LoadTenantPrograms(paths, tenants);
    if (!tp.ok()) return Fail(tp.status());
    return CmdSimulateTenants(*tp, events, static_cast<int>(grid), *sim,
                              seed, metrics_out);
  }
  return CmdSimulate(path, events, static_cast<int>(grid), *sim, seed,
                     metrics_interval, trace, trace_out, metrics_out);
}
