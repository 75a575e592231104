// Chaos-harness tests: link-fault semantics (asymmetric cuts, healing,
// corruption, duplication), scenario serialization round trips, run
// determinism, invariant checking, and greedy schedule shrinking.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "deduce/datalog/parser.h"
#include "deduce/engine/engine.h"
#include "deduce/engine/invariants.h"
#include "deduce/engine/scenario.h"
#include "deduce/net/network.h"

namespace deduce {
namespace {

/// Records every delivered payload per receiving node; each node sends one
/// message to each neighbor when its `send` timer fires.
class ProbeApp : public NodeApp {
 public:
  ProbeApp(std::vector<std::pair<NodeId, std::vector<uint8_t>>>* log,
           std::vector<SimTime> send_times)
      : log_(log), send_times_(std::move(send_times)) {}

  void Start(NodeContext* ctx) override {
    for (SimTime t : send_times_) {
      ctx->SetTimer(t, [ctx] {
        for (NodeId peer : ctx->neighbors()) {
          Message m;
          m.type = 42;
          m.payload = {0x11, 0x22, 0x33, 0x44};
          ctx->Send(peer, m);
        }
      });
    }
  }
  void OnMessage(NodeContext* ctx, const Message& msg) override {
    log_->push_back({ctx->id(), msg.payload});
  }

 private:
  std::vector<std::pair<NodeId, std::vector<uint8_t>>>* log_;
  std::vector<SimTime> send_times_;
};

size_t CountReceived(
    const std::vector<std::pair<NodeId, std::vector<uint8_t>>>& log,
    NodeId node) {
  size_t n = 0;
  for (const auto& entry : log) {
    if (entry.first == node) ++n;
  }
  return n;
}

TEST(LinkFaultTest, CutLinksIsAsymmetric) {
  std::vector<std::pair<NodeId, std::vector<uint8_t>>> log;
  Network net(Topology::Line(2), LinkModel{}, 1);
  net.SetApp(0, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{10}));
  net.SetApp(1, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{10}));
  LinkFaultRule rule;
  rule.kind = LinkFaultRule::Kind::kCut;
  rule.src = {0};
  rule.dst = {1};
  net.AddLinkFault(rule);
  net.Start();
  net.sim().Run();
  // 0 -> 1 suppressed, 1 -> 0 unaffected.
  EXPECT_EQ(CountReceived(log, 1), 0u);
  EXPECT_EQ(CountReceived(log, 0), 1u);
  EXPECT_GE(net.stats().links_cut, 1u);
}

TEST(LinkFaultTest, HealLinksRestoresDelivery) {
  std::vector<std::pair<NodeId, std::vector<uint8_t>>> log;
  Network net(Topology::Line(2), LinkModel{}, 1);
  // Node 0 sends at t=10 (while cut) and t=200000 (after heal).
  net.SetApp(0, std::make_unique<ProbeApp>(
                    &log, std::vector<SimTime>{10, 200000}));
  net.SetApp(1, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{}));
  FaultPlan plan;
  plan.CutLinks(0, {0}, {1}).HealLinks(100000, {0}, {1});
  net.ApplyFaultPlan(plan);
  net.Start();
  net.sim().Run();
  // The first send is suppressed, the post-heal send arrives.
  EXPECT_EQ(CountReceived(log, 1), 1u);
  EXPECT_EQ(net.stats().links_cut, 1u);
}

TEST(LinkFaultTest, CorruptionFlipsPayloadBytes) {
  std::vector<std::pair<NodeId, std::vector<uint8_t>>> log;
  Network net(Topology::Line(2), LinkModel{}, 1);
  net.SetApp(0, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{10}));
  net.SetApp(1, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{}));
  LinkFaultRule rule;
  rule.kind = LinkFaultRule::Kind::kCorrupt;
  rule.rate = 1.0;
  net.AddLinkFault(rule);
  net.Start();
  net.sim().Run();
  ASSERT_EQ(CountReceived(log, 1), 1u);
  const std::vector<uint8_t> sent = {0x11, 0x22, 0x33, 0x44};
  EXPECT_NE(log[0].second, sent);  // Delivered, but damaged.
  EXPECT_EQ(log[0].second.size(), sent.size());
  EXPECT_EQ(net.stats().corrupted_delivered, 1u);
}

TEST(LinkFaultTest, DuplicationDeliversTwice) {
  std::vector<std::pair<NodeId, std::vector<uint8_t>>> log;
  Network net(Topology::Line(2), LinkModel{}, 1);
  net.SetApp(0, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{10}));
  net.SetApp(1, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{}));
  LinkFaultRule rule;
  rule.kind = LinkFaultRule::Kind::kDuplicate;
  rule.rate = 1.0;
  net.AddLinkFault(rule);
  net.Start();
  net.sim().Run();
  EXPECT_EQ(CountReceived(log, 1), 2u);
  EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST(LinkFaultTest, NoFaultRulesMeansNoExtraRngDraws) {
  // Two identical runs, one with a never-matching rule installed and then
  // healed before Start: the delivery schedule must stay bit-identical
  // (fault checks draw no RNG when the rule list is empty).
  auto run = [](bool install_and_heal) {
    std::vector<std::pair<NodeId, std::vector<uint8_t>>> log;
    LinkModel link;
    link.loss_rate = 0.2;
    link.retries = 2;
    Network net(Topology::Line(2), link, 99);
    net.SetApp(0, std::make_unique<ProbeApp>(
                      &log, std::vector<SimTime>{10, 20, 30, 40}));
    net.SetApp(1, std::make_unique<ProbeApp>(&log, std::vector<SimTime>{}));
    if (install_and_heal) {
      LinkFaultRule rule;
      rule.kind = LinkFaultRule::Kind::kCut;
      rule.src = {1};
      rule.dst = {0};
      net.AddLinkFault(rule);
      net.HealLinks({1}, {0});
    }
    net.Start();
    net.sim().Run();
    return log;
  };
  EXPECT_EQ(run(false), run(true));
}

constexpr char kJoinScenario[] = R"(# deduce chaos scenario v1
seed 11
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
50000 0 + r(1, 0, 1).
60000 5 + s(1, 5, 2).
300000 2 + r(2, 2, 3).
320000 10 + s(2, 10, 4).
350000 6 + r(1, 6, 5).
380000 15 + s(1, 15, 6).
[faults]
[end]
)";

std::vector<std::string> SortedResults(const Database& db) {
  std::vector<std::string> out;
  for (SymbolId pred : db.Predicates()) {
    for (const Fact& f : db.Relation(pred)) out.push_back(f.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ScenarioTest, PartitionThenHealConvergesToFaultFreeResults) {
  auto fault_free = Scenario::FromText(kJoinScenario);
  ASSERT_TRUE(fault_free.ok()) << fault_free.status().ToString();

  Scenario partitioned = *fault_free;
  // Split the 4x4 grid down the middle in both directions mid-run, heal
  // before the end; the reliable transport must finish the job.
  std::vector<NodeId> left = {0, 1, 4, 5, 8, 9, 12, 13};
  std::vector<NodeId> right = {2, 3, 6, 7, 10, 11, 14, 15};
  partitioned.faults.CutLinks(250000, left, right)
      .CutLinks(250000, right, left)
      .HealLinks(600000, left, right)
      .HealLinks(600000, right, left);

  auto base = RunScenario(*fault_free);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto chaos = RunScenario(partitioned);
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();

  EXPECT_TRUE(base->report.ok()) << base->report.ToString();
  EXPECT_TRUE(chaos->report.ok()) << chaos->report.ToString();
  EXPECT_GE(chaos->net.links_cut, 1u);
  // Same final result set as the fault-free run: nothing lost, nothing
  // invented.
  EXPECT_EQ(SortedResults(chaos->results), SortedResults(base->results));
}

TEST(ScenarioTest, TextRoundTripIsIdentity) {
  ChaosProfile profile;
  Scenario sampled = SampleScenario(5, profile);
  std::string text = sampled.ToText();
  auto parsed = Scenario::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToText(), text);
}

TEST(ScenarioTest, SamplingIsDeterministicPerSeed) {
  ChaosProfile profile;
  EXPECT_EQ(SampleScenario(9, profile).ToText(),
            SampleScenario(9, profile).ToText());
  EXPECT_NE(SampleScenario(9, profile).ToText(),
            SampleScenario(10, profile).ToText());
}

TEST(ScenarioTest, UnknownFutureVersionIsRejected) {
  std::string text = kJoinScenario;
  size_t at = text.find("scenario v1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 11, "scenario v4");
  auto parsed = Scenario::FromText(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("unsupported scenario version"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(ScenarioTest, UnknownFaultKindIsRejected) {
  std::string text = kJoinScenario;
  size_t at = text.find("[faults]\n");
  ASSERT_NE(at, std::string::npos);
  text.insert(at + 9, "flood 100000 2\n");
  auto parsed = Scenario::FromText(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("unknown fault kind 'flood'"),
            std::string::npos)
      << parsed.status().ToString();
}

/// The 1-based line of `text` that `pos` falls on.
int LineOf(const std::string& text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() + static_cast<long>(pos),
                                         '\n'));
}

TEST(ScenarioTest, MalformedHeaderValuesAreRejectedWithTheirLine) {
  // Each case swaps one header line of kJoinScenario for a malformed one.
  struct Case {
    const char* line;
    const char* bad;
  };
  const Case cases[] = {
      {"seed 11\n", "seed 7abc\n"},                 // unsigned
      {"seed 11\n", "seed -11\n"},                  // unsigned, with a sign
      {"grid 4\n", "grid 4x\n"},                    // int
      {"grid 4\n", "grid 4294967300\n"},            // int, overflows
      {"loss 0\n", "loss 0.1x\n"},                  // double
      {"retries 0\n", "retries two\n"},             // int
      {"reliable 1\n", "reliable yes\n"},           // boolean
      {"checksum 0\n", "checksum 2\n"},             // boolean
      {"anti_entropy_period 0\n", "anti_entropy_period 400ms\n"},  // int64
      {"rto_jitter 0.1\n", "rto_jitter +0.1\n"},    // double, with a '+'
      {"storage row\n", "budget_replicas -5\n"},    // unsigned
      {"storage row\n", "storage row extra\n"},     // a second value
  };
  for (const Case& c : cases) {
    std::string text = kJoinScenario;
    size_t at = text.find(c.line);
    ASSERT_NE(at, std::string::npos) << c.line;
    text.replace(at, std::string(c.line).size(), c.bad);
    auto parsed = Scenario::FromText(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << c.bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    std::string where = "scenario line " + std::to_string(LineOf(text, at));
    EXPECT_NE(parsed.status().message().find(where), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ScenarioTest, MalformedFaultValuesAreRejectedWithTheirLine) {
  const char* bad_faults[] = {
      "fail 10x 3",                                // time
      "fail 100000 3x",                            // node
      "slow 100000 3 stall=5x",                    // stall
      "squeeze 100000 factor=half",                // factor
      "storm 100000 3 count=4x pred=r",            // count
      "cut 100000 0,1x -> 2",                      // node list
      "corrupt 100000 * -> * rate=0.5x",           // rate
      "delay 100000 * -> * rate=1 extra=5ms",      // extra
  };
  for (const char* fault : bad_faults) {
    std::string text = kJoinScenario;
    size_t at = text.find("[faults]\n");
    ASSERT_NE(at, std::string::npos);
    text.insert(at + 9, std::string(fault) + "\n");
    auto parsed = Scenario::FromText(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << fault;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    std::string where = "faults line " + std::to_string(LineOf(text, at + 9));
    EXPECT_NE(parsed.status().message().find(where), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ScenarioTest, SealedFramesAreAttributedWithoutTheirTrailer) {
  // Checksums on, reliable transport off: every frame on the air ends in
  // its 4-byte trailer, which a result's optional trailing field must not
  // read. Every store, sweep and result hop names its predicate, and every
  // result hop its supports.
  ChaosProfile profile;
  profile.reliable = false;
  Scenario scenario = SampleScenario(1, profile);
  ASSERT_TRUE(scenario.checksum);
  std::ostringstream out;
  TraceWriter trace;
  trace.OpenStream(&out);
  ScenarioRunOptions run;
  run.trace = &trace;
  run.provenance = true;
  auto outcome = RunScenario(scenario, run);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  int results = 0;
  for (const TraceRecord& r : ParseTraceRecords(out.str())) {
    if (r.kind != "hop") continue;
    if (r.phase != "store" && r.phase != "sweep" && r.phase != "result") {
      continue;
    }
    EXPECT_FALSE(r.pred.empty()) << r.ToJson();
    if (r.phase == "result") {
      ++results;
      EXPECT_FALSE(r.tids.empty()) << r.ToJson();
    }
  }
  EXPECT_GT(results, 0);
}

TEST(ScenarioTest, OverloadScenarioRoundTripsThroughV2Text) {
  ChaosProfile profile;
  profile.overload = true;
  Scenario sampled = SampleScenario(5, profile);
  std::string text = sampled.ToText();
  EXPECT_NE(text.find("# deduce chaos scenario v2"), std::string::npos);
  EXPECT_NE(text.find("budget 1"), std::string::npos);
  EXPECT_NE(text.find("storm "), std::string::npos);
  auto parsed = Scenario::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToText(), text);
}

TEST(ScenarioTest, SampledOverloadScenariosRunCleanAndShed) {
  // Invariant-checked overload runs: storms past tight budgets must shed
  // without ever reporting a shed-derived result as complete.
  ChaosProfile profile;
  profile.overload = true;
  for (uint64_t seed : {3u, 7u, 19u}) {
    Scenario scenario = SampleScenario(seed, profile);
    auto run = RunScenario(scenario);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->report.ok())
        << "seed " << seed << ": " << run->report.ToString();
    EXPECT_TRUE(run->report.shed_soundness_checked);
    EXPECT_TRUE(run->overload);
  }
}

TEST(ScenarioTest, RunIsDeterministic) {
  auto scenario = Scenario::FromText(kJoinScenario);
  ASSERT_TRUE(scenario.ok());
  auto a = RunScenario(*scenario);
  auto b = RunScenario(*scenario);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Summary(), b->Summary());
}

TEST(InvariantTest, CleanRunPassesAllChecks) {
  auto scenario = Scenario::FromText(kJoinScenario);
  ASSERT_TRUE(scenario.ok());
  auto run = RunScenario(*scenario);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->report.ok()) << run->report.ToString();
  EXPECT_TRUE(run->report.soundness_checked);
  EXPECT_TRUE(run->report.dedup_checked);
}

TEST(InvariantTest, PhantomResultIsFlagged) {
  // An empty oracle makes every derived result a phantom: the soundness
  // check must flag each one.
  auto program = ParseProgram(R"(
    .decl r/3 input.
    .decl s/3 input.
    t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).
  )");
  ASSERT_TRUE(program.ok());
  Network net(Topology::Grid(3), LinkModel{}, 1);
  EngineOptions options;
  auto engine = DistributedEngine::Create(&net, *program, options);
  ASSERT_TRUE(engine.ok());
  (void)(*engine)->Inject(0, StreamOp::kInsert,
                          Fact(Intern("r"), {Term::Int(1), Term::Int(0),
                                             Term::Int(1)}));
  (void)(*engine)->Inject(4, StreamOp::kInsert,
                          Fact(Intern("s"), {Term::Int(1), Term::Int(4),
                                             Term::Int(2)}));
  net.sim().Run();
  ASSERT_FALSE((*engine)->ResultDatabase().Predicates().empty());

  Database empty_oracle;
  InvariantOptions inv;
  inv.oracle = &empty_oracle;
  InvariantReport report = CheckInvariants(**engine, inv);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.soundness_checked);
  for (const std::string& v : report.violations) {
    EXPECT_NE(v.find("phantom"), std::string::npos) << v;
  }
}

TEST(ShrinkTest, RemovesIrrelevantEventsAndKeepsViolation) {
  // The committed phantom reproducer, padded with injections and a fault
  // clause that are irrelevant to the violation: shrinking must strip the
  // padding and keep violating.
  constexpr char kPadded[] = R"(# deduce chaos scenario v1
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
100000 1 + r(9, 1, 90).
200000 2 + s(8, 2, 91).
1163587 5 + r(3, 5, 24).
1239371 6 + s(3, 6, 25).
1338172 0 + s(3, 0, 26).
1538231 0 - s(3, 0, 26).
2000000 3 + r(7, 3, 92).
[faults]
corrupt 669372 * -> * rate=0.3
delay 100000 * -> * rate=0.1 extra=2000
[end]
)";
  auto padded = Scenario::FromText(kPadded);
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  auto before = RunScenario(*padded);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->report.ok()) << "padded scenario must violate";

  auto shrunk = ShrinkScenario(*padded);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_GT(shrunk->removed, 0);
  EXPECT_GT(shrunk->runs, 0);
  EXPECT_LT(shrunk->scenario.events.size(), padded->events.size());

  // The minimal scenario still violates, and re-runs deterministically.
  auto after = RunScenario(shrunk->scenario);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->report.ok());
  auto again = RunScenario(shrunk->scenario);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(after->Summary(), again->Summary());
}

TEST(ShrinkTest, DropsHealsOrphanedByRemovingTheirCut) {
  // A heal only undoes a cut with the exact same src/dst lists; once the
  // cut is gone the heal is a provable no-op. Shrinking must never emit a
  // scenario where a heal survives its partner: pad the reproducer with an
  // orphaned heal (no cut at all) and a cut+heal pair irrelevant to the
  // violation, then check the 1-minimal output has no orphaned heals left.
  constexpr char kPadded[] = R"(# deduce chaos scenario v1
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
heal 300000 14,15 -> 14,15
cut 400000 14 -> 15
heal 500000 14 -> 15
corrupt 669372 * -> * rate=0.3
[end]
)";
  auto padded = Scenario::FromText(kPadded);
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  auto before = RunScenario(*padded);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->report.ok()) << "padded scenario must violate";

  auto shrunk = ShrinkScenario(*padded);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_GT(shrunk->removed, 0);

  // Minimality property: every surviving heal has a cut with identical
  // src/dst lists firing no later than it.
  const auto& events = shrunk->scenario.faults.events;
  for (const FaultEvent& ev : events) {
    if (ev.kind != FaultEvent::Kind::kHealLinks) continue;
    bool partnered = false;
    for (const FaultEvent& cut : events) {
      if (cut.kind == FaultEvent::Kind::kAddLinkFault &&
          cut.time <= ev.time && cut.rule.src == ev.rule.src &&
          cut.rule.dst == ev.rule.dst) {
        partnered = true;
        break;
      }
    }
    EXPECT_TRUE(partnered) << "orphaned heal at t=" << ev.time
                           << " survived shrinking";
  }
  // The heal that never had a cut is gone without costing a re-execution.
  for (const FaultEvent& ev : events) {
    EXPECT_FALSE(ev.kind == FaultEvent::Kind::kHealLinks &&
                 ev.time == 300000)
        << "initially-orphaned heal survived";
  }

  auto after = RunScenario(shrunk->scenario);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->report.ok());
}

}  // namespace
}  // namespace deduce
