#include "deduce/engine/counterfactual/counterfactual.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "deduce/common/parallel.h"
#include "deduce/datalog/symbol.h"
#include "deduce/engine/counterfactual/attribution.h"

namespace deduce {

namespace {

/// One world's run artifacts, produced on a trial-runner thread.
struct WorldRun {
  Status status = Status::OK();
  ScenarioOutcome outcome;
  std::string trace;
};

WorldRun RunWorld(const Scenario& scenario,
                  const CounterfactualOptions& options) {
  WorldRun w;
  std::ostringstream sink;
  TraceWriter writer;
  writer.OpenStream(&sink);
  ScenarioRunOptions run;
  run.provenance = true;
  run.provenance_capacity = options.provenance_capacity;
  run.trace = &writer;
  auto outcome = RunScenario(scenario, run);
  writer.Close();
  if (!outcome.ok()) {
    w.status = outcome.status();
    return w;
  }
  w.outcome = std::move(*outcome);
  w.trace = sink.str();
  return w;
}

/// fact text -> Fact for every alive tuple of a database.
std::map<std::string, Fact> Facts(const Database& db) {
  std::map<std::string, Fact> out;
  for (SymbolId pred : db.Predicates()) {
    for (const Fact& f : db.Relation(pred)) {
      out.emplace(f.ToString(), f);
    }
  }
  return out;
}

void AddCosts(const std::vector<TraceRecord>& records, int sign,
              std::map<std::string, CostDelta>* by_pred) {
  TraceStats stats;
  for (const TraceRecord& r : records) stats.Add(r);
  for (const auto& [key, cell] : stats.by_phase_pred) {
    CostDelta& d = (*by_pred)[key.second];
    d.messages += sign * static_cast<int64_t>(cell.messages);
    d.bytes += sign * static_cast<int64_t>(cell.bytes);
  }
  for (const TraceRecord& r : records) {
    if (r.kind == "retransmit") {
      (*by_pred)[r.pred].retransmits += sign;
    } else if (r.kind == "shed") {
      (*by_pred)[r.pred].sheds += sign;
    }
  }
  for (const auto& [pred, cell] : stats.latency_by_pred) {
    if (cell.results == 0) continue;
    (*by_pred)[pred].mean_latency_us +=
        sign * (cell.lat_sum / static_cast<int64_t>(cell.results));
  }
}

StatusOr<CounterfactualResult> Explain(Scenario base, Scenario perturbed,
                                       const std::string& spec,
                                       const CounterfactualOptions& options) {
  CounterfactualResult result;
  result.base = std::move(base);
  result.perturbed = std::move(perturbed);

  // The two worlds are two trials: same pool, ordered reduction, so the
  // explanation is byte-identical at any --threads (DESIGN.md §11).
  const Scenario* worlds[2] = {&result.base, &result.perturbed};
  WorldRun runs[2];
  RunTrials(
      2, options.threads,
      [&](size_t i) { return RunWorld(*worlds[i], options); },
      [&](size_t i, WorldRun r) { runs[i] = std::move(r); });
  if (!runs[0].status.ok()) {
    return StatusOr<CounterfactualResult>(runs[0].status);
  }
  if (!runs[1].status.ok()) {
    return StatusOr<CounterfactualResult>(runs[1].status);
  }
  result.base_outcome = std::move(runs[0].outcome);
  result.perturbed_outcome = std::move(runs[1].outcome);
  result.base_trace = std::move(runs[0].trace);
  result.perturbed_trace = std::move(runs[1].trace);

  std::vector<TraceRecord> base_records = ParseTraceRecords(result.base_trace);
  std::vector<TraceRecord> pert_records =
      ParseTraceRecords(result.perturbed_trace);

  ChangeExplanation& diff = result.explanation;
  diff.spec = spec;

  // Symmetric diff of the undegraded result sets. A tuple that survives in
  // the other world's *degraded* set did not vanish — its trust flipped.
  std::map<std::string, Fact> base_u = Facts(result.base_outcome.undegraded);
  std::map<std::string, Fact> pert_u =
      Facts(result.perturbed_outcome.undegraded);
  std::map<std::string, Fact> base_r = Facts(result.base_outcome.results);
  std::map<std::string, Fact> pert_r = Facts(result.perturbed_outcome.results);
  for (const auto& [text, fact] : base_u) {
    if (pert_u.count(text) > 0) continue;
    DiffEntry e;
    e.fact = fact;
    e.fact_text = text;
    e.pred = SymbolName(fact.predicate());
    if (pert_r.count(text) > 0) {
      e.change = DiffEntry::Change::kFlippedDegraded;
      AttributeDivergence(base_records, pert_records, &e);
      diff.flipped.push_back(std::move(e));
    } else {
      e.change = DiffEntry::Change::kVanished;
      AttributeDivergence(base_records, pert_records, &e);
      diff.vanished.push_back(std::move(e));
    }
  }
  for (const auto& [text, fact] : pert_u) {
    if (base_u.count(text) > 0) continue;
    DiffEntry e;
    e.fact = fact;
    e.fact_text = text;
    e.pred = SymbolName(fact.predicate());
    if (base_r.count(text) > 0) {
      e.change = DiffEntry::Change::kFlippedUndegraded;
      AttributeDivergence(pert_records, base_records, &e);
      diff.flipped.push_back(std::move(e));
    } else {
      e.change = DiffEntry::Change::kAppeared;
      AttributeDivergence(pert_records, base_records, &e);
      diff.appeared.push_back(std::move(e));
    }
  }
  auto by_fact = [](const DiffEntry& a, const DiffEntry& b) {
    return a.fact_text < b.fact_text;
  };
  std::sort(diff.appeared.begin(), diff.appeared.end(), by_fact);
  std::sort(diff.vanished.begin(), diff.vanished.end(), by_fact);
  std::sort(diff.flipped.begin(), diff.flipped.end(), by_fact);

  // Per-predicate cost deltas: perturbed minus base, built from the same
  // TraceStats cells `dlog stats` prints, so the per-pred columns sum to
  // the difference of the two grand totals exactly.
  AddCosts(base_records, -1, &diff.cost_by_pred);
  AddCosts(pert_records, +1, &diff.cost_by_pred);
  {
    TraceStats bs, ps;
    for (const TraceRecord& r : base_records) bs.Add(r);
    for (const TraceRecord& r : pert_records) ps.Add(r);
    diff.base_messages = bs.total_messages;
    diff.base_bytes = bs.total_bytes;
    diff.perturbed_messages = ps.total_messages;
    diff.perturbed_bytes = ps.total_bytes;
    diff.base_retransmits = bs.retransmits;
    diff.perturbed_retransmits = ps.retransmits;
    diff.base_sheds = bs.sheds;
    diff.perturbed_sheds = ps.sheds;
  }

  diff.soundness = CheckDiffSoundness(diff, result.base_outcome.oracle,
                                      result.perturbed_outcome.oracle);
  return result;
}

}  // namespace

StatusOr<CounterfactualResult> RunCounterfactual(
    const Scenario& base, const std::vector<Perturbation>& perturbs,
    const CounterfactualOptions& options) {
  if (perturbs.empty()) {
    return StatusOr<CounterfactualResult>(
        Status::InvalidArgument("empty perturbation list"));
  }
  Scenario base_clean = base;
  if (!base_clean.perturbations.empty()) {
    // A v3 file as the *base* world runs with its own block materialized;
    // the counterfactual block stacks on top.
    auto materialized = ApplyPerturbations(base_clean);
    if (!materialized.ok()) {
      return StatusOr<CounterfactualResult>(materialized.status());
    }
    base_clean = std::move(*materialized);
  }
  Scenario perturbed = base_clean;
  perturbed.perturbations = perturbs;
  // Materialize now so apply-time errors (unknown node, no matching
  // injection, tenant removal) surface before any simulation runs.
  auto check = ApplyPerturbations(perturbed);
  if (!check.ok()) return StatusOr<CounterfactualResult>(check.status());
  return Explain(std::move(base_clean), std::move(perturbed),
                 FormatPerturbationSpec(perturbs), options);
}

StatusOr<CounterfactualResult> DiffScenarios(
    const Scenario& base, const Scenario& perturbed,
    const CounterfactualOptions& options) {
  std::string spec = perturbed.perturbations.empty()
                         ? "(scenario diff)"
                         : FormatPerturbationSpec(perturbed.perturbations);
  return Explain(base, perturbed, spec, options);
}

}  // namespace deduce
