// State-repair coverage (DESIGN.md §10): post-reboot resynchronization of
// PA storage bands, periodic anti-entropy between band neighbors, degraded
// tagging of answers computed through unsynced nodes, and the crash-reboot
// flood-dedup regression. Scenarios mirror docs/FAULTS.md "State repair".

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "deduce/datalog/parser.h"
#include "deduce/engine/engine.h"
#include "test_util.h"

namespace deduce {
namespace {

constexpr char kTwoStreamJoin[] = R"(
  .decl r/3 input.
  .decl s/3 input.
  t(K, N1, N2) :- r(K, N1, I1), s(K, N2, I2).
)";

/// Deterministic link: exactly 1 ms per hop, no loss.
LinkModel StepLink() {
  LinkModel link;
  link.base_delay = 1'000;
  link.jitter = 0;
  link.per_byte_delay = 0;
  return link;
}

struct Injection {
  SimTime at = 0;
  NodeId node = kNoNode;
  const char* pred = "r";
  int key = 0;
};

struct RunOutcome {
  std::set<std::string> facts;
  EngineStats stats;
  uint64_t nodes_recovered = 0;
};

/// Runs kTwoStreamJoin on `topo` with the given faults/options, applying
/// `injections` at their scheduled times, then quiescing.
RunOutcome RunScenario(const Topology& topo, const LinkModel& link,
                       const EngineOptions& options,
                       const std::vector<Injection>& injections,
                       uint64_t seed, const FaultPlan* faults = nullptr) {
  RunOutcome out;
  auto program = ParseProgram(kTwoStreamJoin);
  EXPECT_TRUE(program.ok()) << program.status();
  Network net(topo, link, seed);
  if (faults != nullptr) net.ApplyFaultPlan(*faults);
  auto engine = DistributedEngine::Create(&net, *program, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return out;
  int seq = 0;
  for (const Injection& inj : injections) {
    net.sim().RunUntil(inj.at);
    EXPECT_TRUE((*engine)
                    ->Inject(inj.node, StreamOp::kInsert,
                             Fact(Intern(inj.pred),
                                  {Term::Int(inj.key), Term::Int(inj.node),
                                   Term::Int(seq++)}))
                    .ok());
  }
  net.sim().Run();
  for (const Fact& f : (*engine)->ResultFacts(Intern("t"))) {
    out.facts.insert(f.ToString());
  }
  out.stats = (*engine)->stats();
  out.nodes_recovered = net.stats().nodes_recovered;
  return out;
}

std::string Pair(int key, NodeId r_node, NodeId s_node) {
  return "t(" + std::to_string(key) + ", " + std::to_string(r_node) + ", " +
         std::to_string(s_node) + ")";
}

// --- reboot resync (tentpole, mode 1) --------------------------------------

TEST(RepairTest, RebootResyncRecoversBandReplicas) {
  // r lives on band y=2 (row walk completes by ~105 ms). The band node the
  // later column sweep will consult, (2,2), crash-reboots in between —
  // losing its replica store. With resync on it re-pulls r from a band
  // peer before the sweep arrives; with it off the sweep reads an empty
  // store and the join silently loses its only matching pair.
  Topology topo = Topology::Grid(5);
  NodeId r_node = topo.GridNode(0, 2);
  NodeId s_node = topo.GridNode(2, 0);
  FaultPlan faults;
  faults.Fail(400'000, topo.GridNode(2, 2));
  faults.Recover(500'000, topo.GridNode(2, 2));
  std::vector<Injection> injections = {
      {100'000, r_node, "r", 0},
      {1'200'000, s_node, "s", 0},
  };

  EngineOptions on;
  on.repair.enabled = true;
  RunOutcome with = RunScenario(topo, StepLink(), on, injections,
                                TestSeed(21), &faults);
  EXPECT_TRUE(with.stats.errors.empty());
  EXPECT_EQ(with.nodes_recovered, 1u);
  EXPECT_TRUE(with.facts.count(Pair(0, r_node, s_node)))
      << "resynced node should serve the recovered replica";
  EXPECT_EQ(with.stats.resyncs_started, 1u);
  EXPECT_EQ(with.stats.resyncs_completed, 1u);
  EXPECT_EQ(with.stats.resyncs_abandoned, 0u);
  EXPECT_GE(with.stats.repair_replicas_pulled, 1u);
  EXPECT_GT(with.stats.resync_time_us, 0u);

  EngineOptions off;
  RunOutcome without = RunScenario(topo, StepLink(), off, injections,
                                   TestSeed(21), &faults);
  EXPECT_EQ(without.facts.count(Pair(0, r_node, s_node)), 0u)
      << "without repair the rebooted node must under-report";
  EXPECT_EQ(without.stats.resyncs_started, 0u);
  EXPECT_EQ(without.stats.repair_digest_rounds, 0u);
  EXPECT_EQ(without.stats.repair_replicas_pulled, 0u);
}

TEST(RepairTest, RebootResyncRetriesOnItsTimer) {
  // As above, but the rebooted node's first digest request is cut off
  // from both adjacent band peers. Only the resync timeout, a timer set in
  // OnRestart, can start the second attempt, which the healed links carry.
  Topology topo = Topology::Grid(5);
  NodeId r_node = topo.GridNode(0, 2);
  NodeId s_node = topo.GridNode(2, 0);
  NodeId victim = topo.GridNode(2, 2);
  std::vector<NodeId> peers = {topo.GridNode(1, 2), topo.GridNode(3, 2)};
  FaultPlan faults;
  faults.Fail(400'000, victim);
  faults.CutLinks(450'000, {victim}, peers);
  faults.Recover(500'000, victim);
  faults.HealLinks(550'000, {victim}, peers);
  std::vector<Injection> injections = {
      {100'000, r_node, "r", 0},
      {1'200'000, s_node, "s", 0},
  };

  EngineOptions options;
  options.repair.enabled = true;
  options.repair.resync_timeout = 100'000;  // second attempt at 600 ms
  RunOutcome out = RunScenario(topo, StepLink(), options, injections,
                               TestSeed(26), &faults);
  EXPECT_TRUE(out.stats.errors.empty());
  EXPECT_EQ(out.nodes_recovered, 1u);
  EXPECT_EQ(out.stats.resyncs_started, 1u);
  EXPECT_EQ(out.stats.repair_digest_rounds, 2u);
  EXPECT_EQ(out.stats.resyncs_completed, 1u);
  EXPECT_EQ(out.stats.resyncs_abandoned, 0u);
  EXPECT_GE(out.stats.repair_replicas_pulled, 1u);
  EXPECT_TRUE(out.facts.count(Pair(0, r_node, s_node)));
}

// --- end-to-end churn recall (satellite: churn recall test) -----------------

TEST(RepairTest, ChurnRecallMatchesNoFaultOracle) {
  // Three band nodes holding live r replicas crash-reboot (staggered) with
  // the reliable transport on. Every sweep consults exactly those nodes
  // after their reboots. With resync the answer set equals the no-fault
  // oracle; without it every pair is lost.
  Topology topo = Topology::Grid(5);
  NodeId s_node = topo.GridNode(2, 0);
  FaultPlan churn = FaultPlan::Churn(
      {topo.GridNode(2, 1), topo.GridNode(2, 2), topo.GridNode(2, 3)},
      /*first_fail=*/600'000, /*downtime=*/400'000, /*stagger=*/500'000);
  std::vector<Injection> injections;
  std::set<std::string> oracle;
  for (int k = 0; k < 3; ++k) {
    NodeId r_node = topo.GridNode(0, k + 1);
    injections.push_back({100'000 + 30'000 * k, r_node, "r", k});
    oracle.insert(Pair(k, r_node, s_node));
  }
  for (int k = 0; k < 3; ++k) {
    injections.push_back({2'600'000 + 300'000 * k, s_node, "s", k});
  }

  EngineOptions on;
  on.transport.reliable = true;
  on.repair.enabled = true;
  RunOutcome with = RunScenario(topo, StepLink(), on, injections,
                                TestSeed(22), &churn);
  EXPECT_TRUE(with.stats.errors.empty());
  EXPECT_EQ(with.nodes_recovered, 3u);
  EXPECT_EQ(with.facts, oracle) << "repair on: recall must match oracle";
  EXPECT_EQ(with.stats.resyncs_started, 3u);
  EXPECT_EQ(with.stats.resyncs_completed, 3u);
  EXPECT_GE(with.stats.repair_replicas_pulled, 3u);

  EngineOptions off;
  off.transport.reliable = true;
  RunOutcome without = RunScenario(topo, StepLink(), off, injections,
                                   TestSeed(22), &churn);
  EXPECT_TRUE(without.facts.empty())
      << "repair off: rebooted band nodes under-report every pair";
}

// --- periodic anti-entropy (tentpole, mode 2) -------------------------------

TEST(RepairTest, AntiEntropyHealsPartialStorageWalk) {
  // (2,2) is dead while r's row walk runs, so the walk dies there: only
  // (0,2) and (1,2) hold the replica. Nobody "rebooted with data" — resync
  // never fires — but periodic anti-entropy lets the repaired replica
  // propagate band-member to band-member until the whole band converges,
  // and then goes quiet (this test terminating at all shows the dirt
  // tracking quiesces the timers).
  Topology topo = Topology::Grid(5);
  NodeId r_node = topo.GridNode(0, 2);
  NodeId s_node = topo.GridNode(2, 0);
  FaultPlan faults;
  faults.Fail(0, topo.GridNode(2, 2));
  faults.Recover(300'000, topo.GridNode(2, 2));
  std::vector<Injection> injections = {
      {100'000, r_node, "r", 0},
      {2'500'000, s_node, "s", 0},
  };

  EngineOptions ae;
  ae.repair.anti_entropy_period = 400'000;
  RunOutcome with = RunScenario(topo, StepLink(), ae, injections,
                                TestSeed(23), &faults);
  EXPECT_TRUE(with.stats.errors.empty());
  EXPECT_TRUE(with.facts.count(Pair(0, r_node, s_node)))
      << "anti-entropy should heal the truncated row walk";
  // The replica crossed (2,2), (3,2) and (4,2) via repair pulls.
  EXPECT_GE(with.stats.repair_replicas_pulled, 3u);
  EXPECT_GT(with.stats.repair_digest_rounds, 0u);
  // Reboot resync stayed off.
  EXPECT_EQ(with.stats.resyncs_started, 0u);

  EngineOptions off;
  RunOutcome without = RunScenario(topo, StepLink(), off, injections,
                                   TestSeed(23), &faults);
  EXPECT_EQ(without.facts.count(Pair(0, r_node, s_node)), 0u)
      << "without anti-entropy the truncated walk never heals";
}

// --- degraded tagging + resync abandonment ----------------------------------

TEST(RepairTest, AbandonedResyncTagsResultsDegraded) {
  // Band y=4 is dead except (2,4), which then crash-reboots: its resync
  // has no alive peer to pull from, burns its attempts, and is abandoned.
  // A sweep passing through it *while still unsynced* yields an answer
  // tagged degraded; a later sweep (post-abandonment) does not.
  Topology topo = Topology::Grid(5);
  NodeId lone = topo.GridNode(2, 4);
  FaultPlan faults;
  for (int x = 0; x < 5; ++x) {
    if (topo.GridNode(x, 4) != lone) faults.Fail(0, topo.GridNode(x, 4));
  }
  faults.Fail(400'000, lone);
  faults.Recover(500'000, lone);

  NodeId r_node = topo.GridNode(0, 3);
  NodeId s_node = topo.GridNode(2, 0);
  std::vector<Injection> injections = {
      {100'000, r_node, "r", 0},
      {600'000, s_node, "s", 0},   // sweep crosses (2,4) mid-resync
      {2'000'000, r_node, "r", 1},
      {2'600'000, s_node, "s", 1},  // sweep crosses (2,4) post-abandonment
  };

  EngineOptions options;
  options.transport.reliable = true;
  options.repair.enabled = true;
  options.repair.resync_timeout = 150'000;
  options.repair.max_resync_attempts = 3;
  RunOutcome out = RunScenario(topo, StepLink(), options, injections,
                               TestSeed(24), &faults);
  EXPECT_TRUE(out.facts.count(Pair(0, r_node, s_node)));
  EXPECT_TRUE(out.facts.count(Pair(1, r_node, s_node)));
  EXPECT_EQ(out.stats.resyncs_started, 1u);
  EXPECT_EQ(out.stats.resyncs_abandoned, 1u);
  EXPECT_EQ(out.stats.resyncs_completed, 0u);
  EXPECT_EQ(out.stats.degraded_results, 1u)
      << "only the mid-resync answer is degraded";
  // Digest requests to the dead band peers made the transport give up and
  // mark them suspected, bumping the shared liveness epoch.
  EXPECT_GT(out.stats.liveness_epoch, 1u);
}

// --- flood dedup across reboot (satellite: regression) ----------------------

TEST(RepairTest, FloodDedupStateSurvivesReboot) {
  // Broadcast storage floods every node; grid redundancy means most nodes
  // receive several copies and suppress all but the first. (1,1) receives
  // its first copies at t=102 ms, crash-reboots, and straggler copies (via
  // the longer grid paths) arrive at t=104 ms — *after* the reboot. The
  // flood-dedup set must survive the reboot: re-processing a straggler
  // would silently re-store (and re-forward) a flood the node already
  // handled, exactly the duplicate-derivation hole this regression pins.
  constexpr char kBroadcastJoin[] = R"(
    .decl b/2 input storage broadcast.
    .decl probe/2 input.
    t(K, N) :- b(K, N), probe(K, N).
  )";
  auto program = ParseProgram(kBroadcastJoin);
  ASSERT_TRUE(program.ok()) << program.status();
  Topology topo = Topology::Grid(4);
  NodeId victim = topo.GridNode(1, 1);
  Network net(topo, StepLink(), TestSeed(25));
  FaultPlan faults;
  faults.Fail(102'400, victim);
  faults.Recover(102'900, victim);
  net.ApplyFaultPlan(faults);
  EngineOptions options;  // repair off: isolates the dedup fix
  auto engine = DistributedEngine::Create(&net, *program, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  net.sim().RunUntil(100'000);
  ASSERT_TRUE((*engine)
                  ->Inject(topo.GridNode(0, 0), StreamOp::kInsert,
                           Fact(Intern("b"), {Term::Int(0), Term::Int(7)}))
                  .ok());
  net.sim().Run();
  EXPECT_TRUE((*engine)->stats().errors.empty());
  EXPECT_EQ(net.stats().nodes_recovered, 1u);
  // 16 nodes stored the flood; the victim's copy died with its reboot and
  // the stragglers were suppressed, not re-stored. (With the pre-fix
  // cleared dedup set this is 16: the straggler is re-processed.)
  EXPECT_EQ((*engine)->TotalReplicas(), 15u);
}

// --- LivenessView hardening (satellite) -------------------------------------

TEST(LivenessViewTest, MarkRejectsOutOfRangeNodes) {
  LivenessView view;
  view.down.assign(4, 0);
  // Out-of-range ids (a corrupted NodeId that escaped wire decoding) are
  // rejected without touching the view or its version.
  EXPECT_FALSE(view.Mark(4, true));
  EXPECT_FALSE(view.Mark(1'000'000, true));
  EXPECT_FALSE(view.Mark(-1, true));
  EXPECT_EQ(view.version, 1u);
  for (char c : view.down) EXPECT_EQ(c, 0);
  // In-range marks behave as before: change bumps, no-op doesn't.
  EXPECT_TRUE(view.Mark(2, true));
  EXPECT_EQ(view.version, 2u);
  EXPECT_TRUE(view.IsDown(2));
  EXPECT_FALSE(view.Mark(2, true));
  EXPECT_EQ(view.version, 2u);
  EXPECT_TRUE(view.Mark(2, false));
  EXPECT_EQ(view.version, 3u);
  EXPECT_FALSE(view.IsDown(-1));
  EXPECT_FALSE(view.IsDown(4));
}

TEST(LivenessViewTest, DownCountTracksMarks) {
  LivenessView view;
  view.down.assign(4, 0);
  EXPECT_EQ(view.down_count, 0);
  EXPECT_TRUE(view.Mark(1, true));
  EXPECT_TRUE(view.Mark(3, true));
  EXPECT_EQ(view.down_count, 2);
  // Repeated and out-of-range marks change nothing.
  EXPECT_FALSE(view.Mark(1, true));
  EXPECT_FALSE(view.Mark(0, false));
  EXPECT_FALSE(view.Mark(9, true));
  EXPECT_EQ(view.down_count, 2);
  EXPECT_TRUE(view.Mark(1, false));
  EXPECT_TRUE(view.Mark(3, false));
  EXPECT_EQ(view.down_count, 0);
}

}  // namespace
}  // namespace deduce
