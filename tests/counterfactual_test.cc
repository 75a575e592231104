// Counterfactual-replay tests (DESIGN.md §14): perturbation-spec parsing
// and round trips, scenario v3 serialization compatibility, the
// divergence-attributed diff (determinism across thread counts, node-down
// attribution, cost-delta reconciliation, diff soundness), replay
// violation attribution against the committed phantom reproducer, and the
// provenance-ring truncation satellite.

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "deduce/common/metrics.h"
#include "deduce/common/trace.h"
#include "deduce/datalog/parser.h"
#include "deduce/engine/counterfactual/attribution.h"
#include "deduce/engine/counterfactual/counterfactual.h"
#include "deduce/engine/counterfactual/perturb.h"
#include "deduce/engine/engine.h"
#include "deduce/engine/invariants.h"
#include "deduce/engine/provenance.h"
#include "deduce/engine/scenario.h"
#include "deduce/net/network.h"

namespace deduce {
namespace {

// The committed tests/scenarios/partition.scn, inlined so the test binary
// has no data-path dependency. Keep the two in sync.
constexpr char kPartitionScenario[] = R"(# deduce chaos scenario v1
seed 7
grid 4
loss 0
retries 0
reliable 1
repair 0
anti_entropy_period 0
checksum 0
rto_jitter 0.1
storage row
[program]
.decl r/3 input.
.decl s/3 input.
t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).
[events]
40000 1 + r(1, 1, 1).
60000 5 + s(1, 5, 2).
90000 5 + r(2, 5, 3).
120000 9 + s(2, 9, 4).
400000 6 + r(3, 6, 5).
430000 10 + s(3, 10, 6).
[faults]
cut 200000 0,1,4,5,8,9,12,13 -> 2,3,6,7,10,11,14,15
cut 200000 2,3,6,7,10,11,14,15 -> 0,1,4,5,8,9,12,13
heal 550000 0,1,4,5,8,9,12,13 -> 2,3,6,7,10,11,14,15
heal 550000 2,3,6,7,10,11,14,15 -> 0,1,4,5,8,9,12,13
[end]
)";

// The committed phantom-after-lost-delete.known-violation.scn schedule:
// corruption drops the retraction of s(3, 0, 26) until the retry budget
// runs out, leaving t(3, 5, 0, 24, 26) alive as a soundness phantom.
constexpr char kPhantomScenario[] = R"(# deduce chaos scenario v1
seed 7
grid 4
loss 0
retries 0
reliable 1
repair 0
anti_entropy_period 0
checksum 1
rto_jitter 0.1
storage row
[program]
.decl r/3 input.
.decl s/3 input.
t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).
[events]
1163587 5 + r(3, 5, 24).
1239371 6 + s(3, 6, 25).
1338172 0 + s(3, 0, 26).
1538231 0 - s(3, 0, 26).
[faults]
corrupt 669372 * -> * rate=0.3
[end]
)";

Scenario MustParse(const char* text) {
  auto s = Scenario::FromText(text);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return *s;
}

// ---------------------------------------------------------------------
// Perturbation spec grammar
// ---------------------------------------------------------------------

TEST(PerturbTest, SpecRoundTripsEveryKind) {
  const char* specs[] = {
      "node=5,down",
      "link=3-7,cut",
      "inject=s(1, 5, 2),drop",
      "budget=replicas,4",
      "budget=inflight,2",
      "budget=eval,1",
      "budget=ingress,8",
      "node=0,down;link=1-2,cut;budget=eval,3",
  };
  for (const char* spec : specs) {
    auto parsed = ParsePerturbationSpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << parsed.status().ToString();
    EXPECT_EQ(FormatPerturbationSpec(*parsed), spec);
    // Parse of the canonical form is the identity.
    auto again = ParsePerturbationSpec(FormatPerturbationSpec(*parsed));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *parsed);
  }
}

TEST(PerturbTest, FactTextWithCommasParses) {
  // The action separator is the LAST comma: fact arguments keep theirs.
  auto p = ParsePerturbation("inject=t(1, 2, 3),drop");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->kind, Perturbation::Kind::kInjectDrop);
  EXPECT_EQ(p->fact, "t(1, 2, 3)");
}

TEST(PerturbTest, MalformedSpecsAreRejected) {
  const char* bad[] = {
      "",                      // empty spec
      "frob=3,down",           // unknown kind
      "node=3",                // missing action
      "node=x,down",           // non-numeric node
      "node=3,explode",        // unknown action
      "link=3,cut",            // malformed endpoint pair
      "budget=replicas,0",     // cap must be positive
      "budget=warp,4",         // unknown budget kind
      "inject=t(1) :- r(1),drop",  // rules are not facts
      "tenant=t1,remove",      // unknown kind
  };
  for (const char* spec : bad) {
    auto parsed = ParsePerturbationSpec(spec);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << spec;
  }
}

// ---------------------------------------------------------------------
// Scenario v3 serialization
// ---------------------------------------------------------------------

TEST(ScenarioV3Test, PerturbBlockRoundTripsAndV3HeaderOnlyWhenPresent) {
  Scenario base = MustParse(kPartitionScenario);
  // No perturbations: ToText must NOT emit a v3 header, keeping every
  // committed v1/v2 reproducer byte-identical under a load/save cycle.
  EXPECT_EQ(base.ToText().find("scenario v3"), std::string::npos);

  // Property-style sweep: every perturbation kind and a few combinations
  // survive ToText -> FromText -> ToText unchanged.
  std::vector<std::vector<std::string>> blocks = {
      {"node=5,down"},
      {"link=3-7,cut"},
      {"inject=s(1, 5, 2),drop"},
      {"budget=replicas,4"},
      {"node=1,down", "link=0-1,cut", "budget=ingress,2"},
  };
  for (const auto& block : blocks) {
    Scenario s = base;
    for (const std::string& clause : block) {
      auto p = ParsePerturbation(clause);
      ASSERT_TRUE(p.ok()) << clause;
      s.perturbations.push_back(*p);
    }
    std::string text = s.ToText();
    EXPECT_NE(text.find("# deduce chaos scenario v3"), std::string::npos);
    EXPECT_NE(text.find("[perturb]"), std::string::npos);
    auto parsed = Scenario::FromText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->perturbations, s.perturbations);
    EXPECT_EQ(parsed->ToText(), text);
  }
}

TEST(ScenarioV3Test, V1AndV2FilesStillParse) {
  EXPECT_TRUE(Scenario::FromText(kPartitionScenario).ok());
  Scenario base = MustParse(kPartitionScenario);
  // A v2 file is what ToText emits for a perturbation-free scenario.
  std::string v2 = base.ToText();
  EXPECT_NE(v2.find("# deduce chaos scenario v2"), std::string::npos);
  auto parsed = Scenario::FromText(v2);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->perturbations.empty());
}

TEST(ScenarioV3Test, UnknownPerturbationKindIsAParseError) {
  Scenario base = MustParse(kPartitionScenario);
  std::string text = base.ToText();
  text.replace(text.find("scenario v2"), 11, "scenario v3");
  text.replace(text.find("[end]"), 5, "[perturb]\nwarp=3,down\n[end]");
  auto parsed = Scenario::FromText(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("unknown perturbation kind"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(ScenarioV3Test, ApplyPerturbationsValidates) {
  Scenario base = MustParse(kPartitionScenario);
  // node out of the 4x4 grid
  base.perturbations = {*ParsePerturbation("node=99,down")};
  EXPECT_FALSE(ApplyPerturbations(base).ok());
  // dropping an injection no event carries explains nothing
  base.perturbations = {*ParsePerturbation("inject=zz(1),drop")};
  EXPECT_FALSE(ApplyPerturbations(base).ok());
  // a valid drop removes exactly the matching events
  base.perturbations = {*ParsePerturbation("inject=s(1, 5, 2),drop")};
  auto applied = ApplyPerturbations(base);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->events.size(), base.events.size() - 1);
  EXPECT_TRUE(applied->perturbations.empty());
}

// ---------------------------------------------------------------------
// The counterfactual diff
// ---------------------------------------------------------------------

TEST(CounterfactualTest, NodeDownVanishesTuplesAttributedToTheDownedNode) {
  Scenario base = MustParse(kPartitionScenario);
  auto perturbs = ParsePerturbationSpec("node=5,down");
  ASSERT_TRUE(perturbs.ok());
  auto result = RunCounterfactual(base, *perturbs, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ChangeExplanation& diff = result->explanation;

  // Node 5 carried s(1, 5, 2) and r(2, 5, 3): their join results must
  // vanish, attributed to a derivation edge on the downed node.
  ASSERT_GE(diff.vanished.size(), 1u);
  bool on_downed_node = false;
  for (const DiffEntry& e : diff.vanished) {
    EXPECT_NE(e.divergence, "unknown") << e.fact_text;
    if (e.node == 5) on_downed_node = true;
  }
  EXPECT_TRUE(on_downed_node)
      << "no vanished tuple attributed to an edge on node 5";
  EXPECT_TRUE(diff.appeared.empty());

  // Diff soundness holds: vanished within base oracle, appeared within
  // perturbed oracle.
  EXPECT_TRUE(diff.soundness.empty()) << diff.soundness.front();

  // Cost reconciliation: the per-predicate message/byte deltas sum
  // exactly to the difference of the two `dlog stats` grand totals.
  int64_t dmsgs = 0, dbytes = 0;
  for (const auto& [pred, d] : diff.cost_by_pred) {
    dmsgs += d.messages;
    dbytes += d.bytes;
  }
  EXPECT_EQ(dmsgs, static_cast<int64_t>(diff.perturbed_messages) -
                       static_cast<int64_t>(diff.base_messages));
  EXPECT_EQ(dbytes, static_cast<int64_t>(diff.perturbed_bytes) -
                        static_cast<int64_t>(diff.base_bytes));
}

TEST(CounterfactualTest, ExplanationIsByteIdenticalAcrossThreadCounts) {
  Scenario base = MustParse(kPartitionScenario);
  auto perturbs = ParsePerturbationSpec("node=5,down");
  ASSERT_TRUE(perturbs.ok());
  std::string reference;
  for (int threads : {1, 4, 8}) {
    CounterfactualOptions options;
    options.threads = threads;
    auto result = RunCounterfactual(base, *perturbs, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string text = result->explanation.Format() +
                       result->explanation.ToJsonl();
    if (reference.empty()) {
      reference = text;
    } else {
      EXPECT_EQ(text, reference) << "threads=" << threads;
    }
  }
}

TEST(CounterfactualTest, InjectDropVanishesOnlyTheDependentResults) {
  Scenario base = MustParse(kPartitionScenario);
  auto perturbs = ParsePerturbationSpec("inject=s(1, 5, 2),drop");
  ASSERT_TRUE(perturbs.ok());
  auto result = RunCounterfactual(base, *perturbs, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ChangeExplanation& diff = result->explanation;
  ASSERT_EQ(diff.vanished.size(), 1u);
  EXPECT_EQ(diff.vanished[0].fact_text, "t(1, 1, 5, 1, 2)");
  EXPECT_EQ(diff.vanished[0].divergence, "inject");
  EXPECT_TRUE(diff.appeared.empty());
  EXPECT_TRUE(diff.soundness.empty());
}

TEST(CounterfactualTest, EmptyPerturbationListIsRejected) {
  Scenario base = MustParse(kPartitionScenario);
  EXPECT_FALSE(RunCounterfactual(base, {}, {}).ok());
}

TEST(CounterfactualTest, SavedPerturbedWorldDiffsCleanAgainstItself) {
  Scenario base = MustParse(kPartitionScenario);
  auto perturbs = ParsePerturbationSpec("node=5,down");
  ASSERT_TRUE(perturbs.ok());
  auto result = RunCounterfactual(base, *perturbs, {});
  ASSERT_TRUE(result.ok());
  // The saved perturbed world keeps its declarative block (v3 text)...
  EXPECT_EQ(result->perturbed.perturbations, *perturbs);
  // ...and `replay --diff` of a world against itself reports no change.
  auto self = DiffScenarios(result->perturbed, result->perturbed, {});
  ASSERT_TRUE(self.ok()) << self.status().ToString();
  EXPECT_TRUE(self->explanation.unchanged());
  EXPECT_TRUE(self->explanation.soundness.empty());
}

TEST(CounterfactualTest, CfdiffRecordsRoundTripThroughTraceParser) {
  Scenario base = MustParse(kPartitionScenario);
  auto perturbs = ParsePerturbationSpec("node=5,down");
  ASSERT_TRUE(perturbs.ok());
  auto result = RunCounterfactual(base, *perturbs, {});
  ASSERT_TRUE(result.ok());
  std::istringstream in(result->explanation.ToJsonl());
  std::string line;
  size_t entries = 0, costs = 0;
  while (std::getline(in, line)) {
    auto r = TraceRecord::FromJson(line);
    ASSERT_TRUE(r.ok()) << r.status() << " <- " << line;
    EXPECT_EQ(r->kind, "cfdiff");
    EXPECT_EQ(r->schema, 3);
    if (r->cf == "cost") {
      EXPECT_EQ(r->phase, "cost");
      ++costs;
    } else {
      EXPECT_TRUE(r->cf == "appeared" || r->cf == "vanished" ||
                  r->cf == "flipped")
          << r->cf;
      EXPECT_FALSE(r->fact.empty());
      ++entries;
    }
    // Round trip: parse(ToJson(parse(line))) is the identity.
    auto again = TraceRecord::FromJson(r->ToJson());
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(*again == *r);
  }
  EXPECT_GE(entries, 1u);
  EXPECT_GE(costs, 1u);

  // TraceStats counts cfdiff records without warning and attributes them
  // no traffic: a cfdiff stream describes two runs, it is not a run.
  std::istringstream stats_in(result->explanation.ToJsonl());
  std::vector<std::string> errors;
  TraceStats stats = TraceStats::Aggregate(stats_in, &errors);
  EXPECT_EQ(stats.cfdiffs, entries + costs);
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_TRUE(stats.unknown_kinds.empty());
  EXPECT_TRUE(errors.empty());
}

TEST(CounterfactualTest, DiffSoundnessCatchesFabricatedEntries) {
  Scenario base = MustParse(kPartitionScenario);
  auto outcome = RunScenario(base);
  ASSERT_TRUE(outcome.ok());

  ChangeExplanation diff;
  DiffEntry bogus;
  bogus.fact = Fact(Intern("t"), {Term::Int(9), Term::Int(9), Term::Int(9),
                                  Term::Int(9), Term::Int(9)});
  bogus.fact_text = bogus.fact.ToString();
  bogus.change = DiffEntry::Change::kVanished;
  diff.vanished.push_back(bogus);
  std::vector<std::string> violations =
      CheckDiffSoundness(diff, outcome->oracle, outcome->oracle);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("vanished tuple"), std::string::npos);
  EXPECT_NE(violations[0].find("t(9, 9, 9, 9, 9)"), std::string::npos);

  diff.vanished.clear();
  bogus.change = DiffEntry::Change::kAppeared;
  diff.appeared.push_back(bogus);
  violations = CheckDiffSoundness(diff, outcome->oracle, outcome->oracle);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("appeared tuple"), std::string::npos);
}

// ---------------------------------------------------------------------
// Replay violation attribution
// ---------------------------------------------------------------------

TEST(AttributionTest, PhantomAfterLostDeleteNamesTheCorruptedRetraction) {
  Scenario scenario = MustParse(kPhantomScenario);
  // The committed reproducer still violates soundness...
  auto outcome = RunScenario(scenario);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->report.ok());

  // ...and a provenance re-run attributes the stale tuple to its
  // retraction that entered the system but never took effect (the
  // corrupted-deletion signature).
  std::ostringstream sink;
  TraceWriter writer;
  writer.OpenStream(&sink);
  ScenarioRunOptions run;
  run.provenance = true;
  run.trace = &writer;
  auto prov_outcome = RunScenario(scenario, run);
  writer.Close();
  ASSERT_TRUE(prov_outcome.ok());
  // Provenance changes no simulated counter: the violation reproduces.
  ASSERT_FALSE(prov_outcome->report.ok());

  std::vector<TraceRecord> records;
  std::istringstream in(sink.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto r = TraceRecord::FromJson(line);
    ASSERT_TRUE(r.ok()) << line;
    records.push_back(std::move(*r));
  }

  auto program = ParseProgram(scenario.program);
  ASSERT_TRUE(program.ok());
  auto rule = ParseRule("t(3, 5, 0, 24, 26).");
  ASSERT_TRUE(rule.ok());
  Fact phantom(rule->head.predicate, rule->head.args);
  std::string chain = AttributeViolation(records, *program, phantom);
  EXPECT_NE(chain.find("causal chain for t(3, 5, 0, 24, 26)"),
            std::string::npos)
      << chain;
  EXPECT_NE(chain.find("retraction of s(3, 0, 26)"), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("never took effect"), std::string::npos) << chain;
  // Deterministic: a second identical run produces the same block.
  EXPECT_EQ(chain, AttributeViolation(records, *program, phantom));
}

// ---------------------------------------------------------------------
// Provenance-ring capacity (satellite: prov.evictions + truncation)
// ---------------------------------------------------------------------

TEST(ProvenanceCapacityTest, TinyRingEvictsWarnsAndTruncatesExplain) {
  auto program = ParseProgram(
      ".decl r/3 input.\n"
      ".decl s/3 input.\n"
      "t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).\n");
  ASSERT_TRUE(program.ok());
  Network net(Topology::Grid(4), LinkModel{}, /*seed=*/5);
  MetricsRegistry metrics;
  EngineOptions options;
  options.provenance.enabled = true;
  options.provenance.ring_capacity = 2;  // not the default of 512
  options.metrics = &metrics;
  auto engine = DistributedEngine::Create(&net, *program, options);
  ASSERT_TRUE(engine.ok());
  // Every injection enters at node 0: its capacity-2 ring keeps only the
  // last two inject edges, evicting the lineage of the earlier keys —
  // while a join result's home ring (one rule edge + one gen edge) fits
  // exactly, so its surviving rule edge names input tids the rings can no
  // longer resolve.
  SimTime t = 10'000;
  for (int i = 0; i < 8; ++i, t += 120'000) {
    net.sim().RunUntil(t);
    Fact f(Intern(i % 2 == 0 ? "r" : "s"),
           {Term::Int(i / 2), Term::Int(i), Term::Int(i)});
    ASSERT_TRUE((*engine)->Inject(0, StreamOp::kInsert, f).ok());
  }
  net.sim().Run();

  // The capacity-1 rings evicted lineage, and the warn-once counter saw it.
  EXPECT_GT(metrics.CounterValue(-1, "prov", "evictions"), 0u);

  // Explaining over the surviving ring-resident edges (eviction/reboot
  // recovery path — the streamed trace never truncates) must report the
  // truncation instead of presenting a silently wrong tree.
  std::vector<ProvenanceEdge> edges = (*engine)->ProvenanceEdges();
  ASSERT_FALSE(edges.empty());
  std::vector<TraceRecord> records;
  records.reserve(edges.size());
  for (const ProvenanceEdge& e : edges) records.push_back(e.ToTraceRecord());

  Database results = (*engine)->ResultDatabase();
  ASSERT_GT(results.size(), 0u);
  bool truncated = false;
  for (SymbolId pred : results.Predicates()) {
    for (const Fact& f : results.Relation(pred)) {
      auto report = ExplainFact(records, *program, f);
      if (!report.ok()) continue;
      if (report->unresolved_tids > 0) {
        EXPECT_NE(report->Format().find("lineage truncated"),
                  std::string::npos)
            << report->Format();
        truncated = true;
      }
    }
  }
  EXPECT_TRUE(truncated)
      << "no explain tree over the capacity-1 rings reported truncation";
}

TEST(ProvenanceCapacityTest, DefaultCapacityDoesNotTruncateOrEvict) {
  Scenario base = MustParse(kPartitionScenario);
  MetricsRegistry metrics;
  ScenarioRunOptions run;
  run.provenance = true;
  run.metrics = &metrics;
  auto outcome = RunScenario(base, run);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(metrics.CounterValue(-1, "prov", "evictions"), 0u);
}

}  // namespace
}  // namespace deduce
