// Fault-tolerance coverage: the end-to-end reliable transport
// (ACK/retransmit/dedup), failure-aware sweep repair, and crash-reboot
// churn. The scenarios mirror DESIGN.md "Fault model & recovery" and
// docs/FAULTS.md.

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

LinkModel ExactLink() {
  LinkModel link;
  link.base_delay = 1'000;
  link.jitter = 500;
  link.per_byte_delay = 4;
  return link;
}

struct RunOutcome {
  std::set<std::string> facts;
  EngineStats stats;
  uint64_t nodes_recovered = 0;
};

/// Injects `pairs` (r, s) pairs 600 ms apart — r at `r_node`, s at
/// `s_node`, key k — and runs to quiescence. The loss-free expected output
/// is t(k, r_node, s_node) for every k.
RunOutcome RunTwoStreamJoin(const Topology& topo, const LinkModel& link,
                            const TransportOptions& transport, int pairs,
                            NodeId r_node, NodeId s_node, uint64_t seed,
                            const FaultPlan* faults = nullptr) {
  RunOutcome out;
  auto program = ParseProgram(kTwoStreamJoin);
  EXPECT_TRUE(program.ok()) << program.status();
  Network net(topo, link, seed);
  if (faults != nullptr) net.ApplyFaultPlan(*faults);
  EngineOptions options;
  options.transport = transport;
  auto engine = DistributedEngine::Create(&net, *program, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return out;
  int seq = 0;
  for (int k = 0; k < pairs; ++k) {
    net.sim().RunUntil(net.sim().now() + 300'000);
    EXPECT_TRUE((*engine)
                    ->Inject(r_node, StreamOp::kInsert,
                             Fact(Intern("r"), {Term::Int(k),
                                                Term::Int(r_node),
                                                Term::Int(seq++)}))
                    .ok());
    net.sim().RunUntil(net.sim().now() + 300'000);
    EXPECT_TRUE((*engine)
                    ->Inject(s_node, StreamOp::kInsert,
                             Fact(Intern("s"), {Term::Int(k),
                                                Term::Int(s_node),
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

std::set<std::string> ExpectedPairs(int pairs, NodeId r_node, NodeId s_node) {
  std::set<std::string> expected;
  for (int k = 0; k < pairs; ++k) {
    expected.insert("t(" + std::to_string(k) + ", " +
                    std::to_string(r_node) + ", " + std::to_string(s_node) +
                    ")");
  }
  return expected;
}

TEST(FaultToleranceTest, CleanRunHasZeroFaultCounters) {
  TransportOptions transport;
  transport.reliable = true;
  RunOutcome out = RunTwoStreamJoin(Topology::Grid(5), ExactLink(), transport,
                                    /*pairs=*/3, /*r_node=*/2, /*s_node=*/22,
                                    /*seed=*/TestSeed(5));
  EXPECT_TRUE(out.stats.errors.empty());
  EXPECT_EQ(out.facts, ExpectedPairs(3, 2, 22));
  // The transport carried traffic...
  EXPECT_GT(out.stats.acks_sent, 0u);
  // ...but a loss-free, failure-free run never needs any of the fault
  // machinery: every ack arrives before its RTO.
  EXPECT_EQ(out.stats.acks_sent, out.stats.acks_received);
  EXPECT_EQ(out.stats.retransmissions, 0u);
  EXPECT_EQ(out.stats.duplicates_suppressed, 0u);
  EXPECT_EQ(out.stats.gave_up_messages, 0u);
  EXPECT_EQ(out.stats.rerouted_hops, 0u);
  EXPECT_EQ(out.stats.skipped_sweep_nodes, 0u);
  EXPECT_EQ(out.stats.skipped_store_nodes, 0u);
  EXPECT_EQ(out.stats.repaired_messages, 0u);
}

TEST(FaultToleranceTest, LossyRunConvergesToLossFreeReference) {
  LinkModel link = ExactLink();
  link.loss_rate = 0.15;
  link.retries = 1;
  TransportOptions transport;
  transport.reliable = true;
  transport.max_retries = 6;
  RunOutcome lossy = RunTwoStreamJoin(Topology::Grid(5), link, transport,
                                      /*pairs=*/5, /*r_node=*/2,
                                      /*s_node=*/22, /*seed=*/TestSeed(11));
  // Lost store/pass/result messages were retransmitted until acked: the
  // lossy run derives exactly what a loss-free run derives.
  EXPECT_TRUE(lossy.stats.errors.empty());
  EXPECT_EQ(lossy.facts, ExpectedPairs(5, 2, 22));
  // Loss really happened and the transport really worked for it. (Only
  // >=: on some seeds every lost hop is a data hop, so all acks arrive.)
  EXPECT_GT(lossy.stats.retransmissions, 0u);
  EXPECT_GE(lossy.stats.acks_sent, lossy.stats.acks_received);
}

TEST(FaultToleranceTest, LossyRunIsDeterministic) {
  LinkModel link = ExactLink();
  link.loss_rate = 0.2;
  link.retries = 0;
  TransportOptions transport;
  transport.reliable = true;
  transport.max_retries = 8;
  auto run = [&] {
    return RunTwoStreamJoin(Topology::Grid(4), link, transport, /*pairs=*/3,
                            /*r_node=*/1, /*s_node=*/14, /*seed=*/TestSeed(77));
  };
  RunOutcome a = run();
  RunOutcome b = run();
  EXPECT_EQ(a.facts, b.facts);
  EXPECT_EQ(a.stats.retransmissions, b.stats.retransmissions);
  EXPECT_EQ(a.stats.acks_sent, b.stats.acks_sent);
  EXPECT_EQ(a.stats.acks_received, b.stats.acks_received);
  EXPECT_EQ(a.stats.duplicates_suppressed, b.stats.duplicates_suppressed);
  EXPECT_EQ(a.stats.gave_up_messages, b.stats.gave_up_messages);
}

TEST(FaultToleranceTest, RetransmitsAreDeduplicatedAtTheReceiver) {
  // High ack-path loss forces retransmits whose originals often did get
  // through: the receiver must suppress the duplicates (each of which it
  // re-acks) instead of re-processing.
  LinkModel link = ExactLink();
  link.loss_rate = 0.35;
  link.retries = 0;
  TransportOptions transport;
  transport.reliable = true;
  transport.max_retries = 10;
  RunOutcome out = RunTwoStreamJoin(Topology::Grid(4), link, transport,
                                    /*pairs=*/4, /*r_node=*/1, /*s_node=*/14,
                                    /*seed=*/3);
  EXPECT_GT(out.stats.duplicates_suppressed, 0u);
  EXPECT_GT(out.stats.retransmissions, 0u);
  // Duplicate deliveries must not duplicate results: every t fact exists
  // at most once per key (ResultFacts unions home stores; a re-processed
  // insert would fault or double-derive, both caught by the checks below).
  EXPECT_TRUE(out.stats.errors.empty());
  for (int k = 0; k < 4; ++k) {
    std::string want = "t(" + std::to_string(k) + ", 1, 14)";
    EXPECT_LE(out.facts.count(want), 1u);
  }
}

TEST(FaultToleranceTest, FailedSweepColumnNodesAreReplacedByBandAlternates) {
  // 10x10 grid. s launches its column sweep from x = 5; the sweep visits
  // (5, y) for every band y. Three interior nodes on that column are dead
  // — exactly the bands where the matching r tuples live. With the
  // transport on, each give-up replaces the dead band representative with
  // an alive same-band node, which holds the same row replicas, so every
  // pair still derives.
  Topology topo = Topology::Grid(10);
  FaultPlan faults;
  faults.Fail(0, topo.GridNode(5, 3));
  faults.Fail(0, topo.GridNode(5, 5));
  faults.Fail(0, topo.GridNode(5, 7));

  LinkModel link = ExactLink();
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {topo.GridNode(0, 3), topo.GridNode(5, 0)},
      {topo.GridNode(0, 5), topo.GridNode(5, 0)},
      {topo.GridNode(0, 7), topo.GridNode(5, 0)},
  };

  auto run_one = [&](const TransportOptions& transport, int k,
                     NodeId r_node, NodeId s_node) {
    return RunTwoStreamJoin(topo, link, transport, /*pairs=*/1, r_node,
                            s_node, /*seed=*/TestSeed(static_cast<uint64_t>(40 + k)),
                            &faults);
  };

  TransportOptions off;  // reliable = false
  TransportOptions on;
  on.reliable = true;

  int derived_off = 0;
  int derived_on = 0;
  uint64_t skipped = 0, repaired = 0, gave_up = 0;
  for (int k = 0; k < static_cast<int>(pairs.size()); ++k) {
    auto [r_node, s_node] = pairs[static_cast<size_t>(k)];
    std::string want = "t(0, " + std::to_string(r_node) + ", " +
                       std::to_string(s_node) + ")";
    derived_off += run_one(off, k, r_node, s_node).facts.count(want) ? 1 : 0;
    RunOutcome out = run_one(on, k, r_node, s_node);
    derived_on += out.facts.count(want) ? 1 : 0;
    skipped += out.stats.skipped_sweep_nodes;
    repaired += out.stats.repaired_messages;
    gave_up += out.stats.gave_up_messages;
  }
  // Without the transport the sweep dies at the first dead column node.
  EXPECT_EQ(derived_off, 0);
  // With it, every pair survives via band-alternate repair.
  EXPECT_EQ(derived_on, 3);
  EXPECT_GT(gave_up, 0u);
  EXPECT_GT(repaired, 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(FaultToleranceTest, CrashRebootChurnDoesNotWedgeTheEngine) {
  // Three interior nodes crash and reboot (volatile state lost), staggered
  // across the run. Injections live on the top and bottom rows, so the
  // rebooted nodes never hold data the joins need: every pair derives.
  Topology topo = Topology::Grid(5);
  FaultPlan churn = FaultPlan::Churn(
      {topo.GridNode(2, 1), topo.GridNode(2, 2), topo.GridNode(2, 3)},
      /*first_fail=*/400'000, /*downtime=*/500'000, /*stagger=*/700'000);
  TransportOptions transport;
  transport.reliable = true;
  RunOutcome out = RunTwoStreamJoin(topo, ExactLink(), transport,
                                    /*pairs=*/5, /*r_node=*/topo.GridNode(0, 0),
                                    /*s_node=*/topo.GridNode(4, 4),
                                    /*seed=*/TestSeed(9), &churn);
  EXPECT_TRUE(out.stats.errors.empty());
  EXPECT_EQ(out.nodes_recovered, 3u);
  EXPECT_EQ(out.facts,
            ExpectedPairs(5, topo.GridNode(0, 0), topo.GridNode(4, 4)));
}

TEST(FaultToleranceTest, InsertionAcceptedAtADownNodeLaunchesNoJoinPass) {
  // r is injected at a crashed node that reboots before τs+τc. The engine
  // accepts the injection, but the join launch it schedules belongs to no
  // incarnation: it never fires, so r derives nothing, although s's
  // replicas along r's column would have matched it.
  auto program = ParseProgram(kTwoStreamJoin);
  ASSERT_TRUE(program.ok()) << program.status();
  Topology topo = Topology::Grid(5);
  NodeId r_node = topo.GridNode(2, 2);
  NodeId s_node = topo.GridNode(4, 2);
  Network net(topo, ExactLink(), TestSeed(31));
  auto engine = DistributedEngine::Create(&net, *program, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  net.sim().RunUntil(100'000);
  ASSERT_TRUE((*engine)
                  ->Inject(s_node, StreamOp::kInsert,
                           Fact(Intern("s"), {Term::Int(0), Term::Int(s_node),
                                              Term::Int(0)}))
                  .ok());
  net.sim().RunUntil(1'000'000);  // s is stored and its join is done
  uint64_t passes_before = (*engine)->stats().join_passes;
  EXPECT_GT(passes_before, 0u);

  net.FailNode(r_node);
  EXPECT_TRUE((*engine)
                  ->Inject(r_node, StreamOp::kInsert,
                           Fact(Intern("r"), {Term::Int(0), Term::Int(r_node),
                                              Term::Int(1)}))
                  .ok());
  SimTime reboot_after = 1'000;
  ASSERT_LT(reboot_after, (*engine)->timing().JoinDelay());
  net.sim().RunUntil(net.now() + reboot_after);
  net.RecoverNode(r_node);
  net.sim().Run();

  EXPECT_TRUE((*engine)->stats().errors.empty());
  EXPECT_EQ((*engine)->stats().tuples_injected, 2u);
  EXPECT_EQ((*engine)->stats().join_passes, passes_before);
  EXPECT_TRUE((*engine)->ResultFacts(Intern("t")).empty());
}

/// Retransmissions observed within a fixed window while one storage-band
/// node is permanently blackholed (links cut both ways, never healed).
uint64_t RetransmitsTowardDeadPeer(double rto_backoff, SimTime rto_max,
                                   uint64_t seed) {
  auto program = ParseProgram(kTwoStreamJoin);
  EXPECT_TRUE(program.ok()) << program.status();
  Network net(Topology::Grid(4), ExactLink(), seed);
  std::vector<NodeId> dead = {3};
  std::vector<NodeId> rest;
  for (NodeId n = 0; n < 16; ++n) {
    if (n != 3) rest.push_back(n);
  }
  FaultPlan plan;
  plan.CutLinks(0, rest, dead).CutLinks(0, dead, rest);
  net.ApplyFaultPlan(plan);
  EngineOptions options;
  options.transport.reliable = true;
  options.transport.max_retries = 30;  // deep budget: the schedule decides
  options.transport.rto_backoff = rto_backoff;
  options.transport.rto_max = rto_max;
  auto engine = DistributedEngine::Create(&net, *program, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return 0;
  for (int k = 0; k < 2; ++k) {
    (void)(*engine)->Inject(
        1, StreamOp::kInsert,
        Fact(Intern("r"), {Term::Int(k), Term::Int(1), Term::Int(k)}));
  }
  net.sim().RunUntil(2'000'000);  // fixed 2 s observation window
  return (*engine)->stats().retransmissions;
}

TEST(FaultToleranceTest, BackoffPreventsRetransmitStormsTowardDeadPeer) {
  // Old policy: fixed RTO (backoff 1.0, no cap) hammers a partitioned
  // peer — the whole retry budget burns in the first fraction of the
  // window. Exponential backoff with the auto cap spends the same budget
  // over a much longer horizon, so the storm seen on the air in any fixed
  // window is strictly smaller.
  uint64_t fixed = RetransmitsTowardDeadPeer(/*rto_backoff=*/1.0,
                                             /*rto_max=*/0, TestSeed(17));
  uint64_t backoff = RetransmitsTowardDeadPeer(/*rto_backoff=*/2.0,
                                               /*rto_max=*/-1, TestSeed(17));
  EXPECT_GT(fixed, 0u);
  EXPECT_GT(backoff, 0u);  // the peer is still being probed...
  EXPECT_LT(backoff, fixed / 2);  // ...but no longer flooded
}

TEST(FaultToleranceTest, DeletionMarkOwedToADeadBandNodeIsResentToItAlone) {
  auto program = ParseProgram(kTwoStreamJoin);
  ASSERT_TRUE(program.ok()) << program.status();
  Network net(Topology::Grid(4), ExactLink(), TestSeed(43));
  EngineOptions options;
  options.transport.reliable = true;
  options.transport.retraction = true;
  auto engine = DistributedEngine::Create(&net, *program, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  std::vector<StoreWire> sent;  // stores node 0 sends in envelopes
  RecordEnvelopedStores(&net, 0, &sent);
  Fact r(Intern("r"), {Term::Int(1), Term::Int(0), Term::Int(1)});
  // Row storage walks r from node 0 through nodes 1, 2 and 3.
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kInsert, r).ok());
  net.sim().RunUntil(net.sim().now() + 300'000);
  net.FailNode(1);
  sent.clear();
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kDelete, r).ok());
  net.sim().Run();

  const EngineStats& stats = (*engine)->stats();
  EXPECT_GT(stats.gave_up_messages, 0u);
  EXPECT_GT(stats.repaired_messages, 0u);
  EXPECT_GT(stats.retraction_requeues, 0u);
  ASSERT_FALSE(sent.empty());
  // The deletion walk heads for node 1 with the rest of the row behind it.
  EXPECT_EQ(sent[0].final_target, 1);
  EXPECT_EQ(sent[0].path_remaining, (std::vector<NodeId>{2, 3}));
  size_t walks = 0;
  size_t repaired = 0;
  size_t owed = 0;
  for (const StoreWire& w : sent) {
    EXPECT_TRUE(w.deletion);
    EXPECT_EQ(w.fact, r);
    if (w.final_target == 1 && !w.path_remaining.empty()) ++walks;
    // Path repair carries the mark past the dead node...
    if (w.final_target == 2) ++repaired;
    // ...and node 1's own mark is re-sent to it alone.
    if (w.final_target == 1 && w.path_remaining.empty()) ++owed;
  }
  EXPECT_EQ(walks, 1u + static_cast<size_t>(options.transport.max_retries));
  EXPECT_GT(repaired, 0u);
  EXPECT_GT(owed, 0u);
  EXPECT_EQ(walks + repaired + owed, sent.size());
}

/// Runs the lossy reliable workload and returns (results, stats) with
/// batched delivery switched on or off.
std::pair<std::set<std::string>, EngineStats> LossyReliableRun(bool batched,
                                                               uint64_t seed) {
  auto program = ParseProgram(kTwoStreamJoin);
  EXPECT_TRUE(program.ok()) << program.status();
  LinkModel link = ExactLink();
  link.loss_rate = 0.15;
  link.retries = 1;
  Network net(Topology::Grid(5), link, seed);
  net.EnableBatchedDelivery(batched);
  EngineOptions options;
  options.transport.reliable = true;
  options.transport.max_retries = 8;
  auto engine = DistributedEngine::Create(&net, *program, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  std::pair<std::set<std::string>, EngineStats> out;
  if (!engine.ok()) return out;
  int seq = 0;
  for (int k = 0; k < 4; ++k) {
    net.sim().RunUntil(net.sim().now() + 300'000);
    (void)(*engine)->Inject(
        2, StreamOp::kInsert,
        Fact(Intern("r"), {Term::Int(k), Term::Int(2), Term::Int(seq++)}));
    net.sim().RunUntil(net.sim().now() + 300'000);
    (void)(*engine)->Inject(
        22, StreamOp::kInsert,
        Fact(Intern("s"), {Term::Int(k), Term::Int(22), Term::Int(seq++)}));
  }
  net.sim().Run();
  for (const Fact& f : (*engine)->ResultFacts(Intern("t"))) {
    out.first.insert(f.ToString());
  }
  out.second = (*engine)->stats();
  return out;
}

TEST(FaultToleranceTest, BatchedDeliveryIsTransparentToReliableTransport) {
  // Coalescing same-tick frames per (src, dst) edge must not perturb the
  // ARQ machinery: identical delivery instants and in-batch order mean an
  // identical ack/retransmit/dedup transcript, not merely the same final
  // result set.
  auto plain = LossyReliableRun(/*batched=*/false, TestSeed(23));
  auto coalesced = LossyReliableRun(/*batched=*/true, TestSeed(23));
  EXPECT_EQ(plain.first, coalesced.first);
  EXPECT_GT(plain.second.retransmissions, 0u);  // loss really happened
  EXPECT_EQ(plain.second.retransmissions, coalesced.second.retransmissions);
  EXPECT_EQ(plain.second.acks_sent, coalesced.second.acks_sent);
  EXPECT_EQ(plain.second.acks_received, coalesced.second.acks_received);
  EXPECT_EQ(plain.second.duplicates_suppressed,
            coalesced.second.duplicates_suppressed);
  EXPECT_EQ(plain.second.gave_up_messages, coalesced.second.gave_up_messages);
}

}  // namespace
}  // namespace deduce
