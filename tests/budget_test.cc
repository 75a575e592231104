// Overload-robustness coverage: per-node resource budgets
// (EngineOptions::budget), admission control and load shedding with sound
// degradation, and the storm/straggler/squeeze chaos axes. See
// docs/FAULTS.md "Overload and shedding".

#include <gtest/gtest.h>

#include <memory>
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

struct BudgetRun {
  std::set<std::string> results;
  std::set<std::string> undegraded;
  EngineStats stats;
  NetworkStats net;
};

/// Injects `pairs` matching (r, s) pairs — r at `r_node`, s at `s_node`,
/// key k mod `keys` — spaced 300 ms apart, and runs to quiescence.
BudgetRun RunJoinWorkload(const BudgetOptions& budget, int pairs, int keys,
                          NodeId r_node, NodeId s_node,
                          const FaultPlan* faults = nullptr,
                          uint64_t seed = TestSeed(21)) {
  BudgetRun out;
  auto program = ParseProgram(kTwoStreamJoin);
  EXPECT_TRUE(program.ok()) << program.status();
  Network net(Topology::Grid(4), ExactLink(), seed);
  if (faults != nullptr) net.ApplyFaultPlan(*faults);
  EngineOptions options;
  options.transport.reliable = true;
  options.budget = budget;
  auto engine = DistributedEngine::Create(&net, *program, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return out;
  int seq = 0;
  for (int k = 0; k < pairs; ++k) {
    net.sim().RunUntil(net.sim().now() + 300'000);
    (void)(*engine)->Inject(r_node, StreamOp::kInsert,
                            Fact(Intern("r"), {Term::Int(k % keys),
                                               Term::Int(r_node),
                                               Term::Int(seq++)}));
    net.sim().RunUntil(net.sim().now() + 300'000);
    (void)(*engine)->Inject(s_node, StreamOp::kInsert,
                            Fact(Intern("s"), {Term::Int(k % keys),
                                               Term::Int(s_node),
                                               Term::Int(seq++)}));
  }
  net.sim().Run();
  for (const Fact& f : (*engine)->ResultFacts(Intern("t"))) {
    out.results.insert(f.ToString());
  }
  Database undeg = (*engine)->UndegradedResultDatabase();
  for (SymbolId pred : undeg.Predicates()) {
    for (const Fact& f : undeg.Relation(pred)) {
      out.undegraded.insert(f.ToString());
    }
  }
  out.stats = (*engine)->stats();
  out.net = net.stats();
  return out;
}

/// Every join result the workload above can legitimately produce.
std::set<std::string> FullJoin(int keys, NodeId r_node, NodeId s_node) {
  std::set<std::string> out;
  for (int k = 0; k < keys; ++k) {
    out.insert(Fact(Intern("t"), {Term::Int(k), Term::Int(r_node),
                                  Term::Int(s_node)})
                   .ToString());
  }
  return out;
}

TEST(BudgetTest, SqueezeShrinksEveryEnabledCapWithFloorOne) {
  BudgetOptions b;
  b.max_replicas_per_pred = 10;
  b.max_inflight = 3;
  b.max_eval_work = 1;
  b.max_ingress = 0;  // disabled caps stay disabled
  b.Squeeze(0.5);
  EXPECT_EQ(b.max_replicas_per_pred, 5u);
  EXPECT_EQ(b.max_inflight, 1u);
  EXPECT_EQ(b.max_eval_work, 1u);  // floor: a squeeze never disables a cap
  EXPECT_EQ(b.max_ingress, 0u);   // 0 = unlimited is preserved
}

TEST(BudgetTest, GenerousBudgetsAreBehaviorIdenticalToBudgetsOff) {
  BudgetOptions off;  // default: disabled
  BudgetOptions generous;
  generous.enabled = true;
  generous.max_replicas_per_pred = 10'000;
  generous.max_inflight = 10'000;
  generous.max_eval_work = 10'000;
  generous.max_ingress = 10'000;
  BudgetRun a = RunJoinWorkload(off, 6, 6, 1, 14);
  BudgetRun b = RunJoinWorkload(generous, 6, 6, 1, 14);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.net.TotalMessages(), b.net.TotalMessages());
  EXPECT_EQ(b.stats.sheds, 0u);
  EXPECT_EQ(b.stats.ingress_rejects, 0u);
  EXPECT_EQ(b.stats.budget_evictions, 0u);
}

TEST(BudgetTest, IngressBudgetRejectsBackToBackInjections) {
  auto program = ParseProgram(kTwoStreamJoin);
  ASSERT_TRUE(program.ok()) << program.status();
  Network net(Topology::Grid(4), ExactLink(), TestSeed(33));
  EngineOptions options;
  options.budget.enabled = true;
  options.budget.max_ingress = 1;
  auto engine = DistributedEngine::Create(&net, *program, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  // Two injections with no simulated time in between: the first holds the
  // only ingress slot until its storage+join launch completes, so the
  // second is refused at the front door with a sender-visible error.
  Status first = (*engine)->Inject(
      0, StreamOp::kInsert,
      Fact(Intern("r"), {Term::Int(1), Term::Int(0), Term::Int(1)}));
  EXPECT_TRUE(first.ok()) << first;
  Status second = (*engine)->Inject(
      0, StreamOp::kInsert,
      Fact(Intern("r"), {Term::Int(2), Term::Int(0), Term::Int(2)}));
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted) << second;
  EXPECT_EQ((*engine)->stats().ingress_rejects, 1u);
  // Once the queue drains, injection works again.
  net.sim().Run();
  Status third = (*engine)->Inject(
      0, StreamOp::kInsert,
      Fact(Intern("r"), {Term::Int(3), Term::Int(0), Term::Int(3)}));
  EXPECT_TRUE(third.ok()) << third;
  net.sim().Run();
}

TEST(BudgetTest, RejectInjectionPolicyRefusesWhenReplicaStoreIsFull) {
  auto program = ParseProgram(kTwoStreamJoin);
  ASSERT_TRUE(program.ok()) << program.status();
  Network net(Topology::Grid(4), ExactLink(), TestSeed(33));
  EngineOptions options;
  options.transport.reliable = true;
  options.budget.enabled = true;
  options.budget.max_replicas_per_pred = 2;
  options.budget.policy = ShedPolicy::kRejectInjection;
  auto engine = DistributedEngine::Create(&net, *program, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    Status st = (*engine)->Inject(
        1, StreamOp::kInsert,
        Fact(Intern("r"), {Term::Int(i), Term::Int(1), Term::Int(i)}));
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
      ++rejected;
    }
    net.sim().Run();  // let each storage walk finish before the next
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ((*engine)->stats().ingress_rejects,
            static_cast<uint64_t>(rejected));
  // Refused injections never entered: nothing was shed inside the engine.
  EXPECT_EQ((*engine)->stats().sheds, 0u);
}

TEST(BudgetTest, ShedNewestStaysSoundAndTaintsDownstreamResults) {
  auto program = ParseProgram(kTwoStreamJoin);
  ASSERT_TRUE(program.ok()) << program.status();
  Network net(Topology::Grid(4), ExactLink(), TestSeed(33));
  EngineOptions options;
  options.transport.reliable = true;
  options.budget.enabled = true;
  options.budget.max_replicas_per_pred = 2;
  options.budget.policy = ShedPolicy::kShedNewest;
  auto engine = DistributedEngine::Create(&net, *program, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  // Phase 1: flood r at one node until its band stores shed (cap 2).
  for (int i = 0; i < 6; ++i) {
    (void)(*engine)->Inject(
        1, StreamOp::kInsert,
        Fact(Intern("r"), {Term::Int(1), Term::Int(1), Term::Int(i)}));
    net.sim().Run();
  }
  EXPECT_GT((*engine)->stats().sheds, 0u);
  // Phase 2: the matching s is admitted (its store is empty), so the join
  // runs — through a store that already discarded replicas. The result is
  // sound but must be flagged degraded, and the undegraded projection
  // must exclude it.
  Status st = (*engine)->Inject(
      1, StreamOp::kInsert,
      Fact(Intern("s"), {Term::Int(1), Term::Int(1), Term::Int(100)}));
  ASSERT_TRUE(st.ok()) << st;
  net.sim().Run();
  std::vector<Fact> results = (*engine)->ResultFacts(Intern("t"));
  ASSERT_FALSE(results.empty());
  Fact expected(Intern("t"), {Term::Int(1), Term::Int(1), Term::Int(1)});
  for (const Fact& f : results) {
    EXPECT_EQ(f.ToString(), expected.ToString()) << "phantom result";
  }
  EXPECT_GT((*engine)->stats().degraded_results, 0u);
  Database undeg = (*engine)->UndegradedResultDatabase();
  size_t undegraded = 0;
  for (SymbolId pred : undeg.Predicates()) {
    undegraded += undeg.Relation(pred).size();
  }
  EXPECT_EQ(undegraded, 0u);
}

TEST(BudgetTest, FarthestWindowPolicyEvictsOldestAndCountsIt) {
  BudgetOptions b;
  b.enabled = true;
  b.max_replicas_per_pred = 2;
  b.policy = ShedPolicy::kShedFarthestWindow;
  BudgetRun run = RunJoinWorkload(b, 10, 10, 1, 1);
  EXPECT_GT(run.stats.budget_evictions, 0u);
  std::set<std::string> full = FullJoin(10, 1, 1);
  for (const std::string& f : run.results) {
    EXPECT_TRUE(full.count(f)) << "phantom result " << f;
  }
}

/// A 4x4 grid whose node 1 is dead, running the two-stream join with the
/// reliable transport and an in-flight cap of one envelope per node. Row
/// storage walks node 0's tuples toward node 1 first, and the envelope
/// aimed at it stays pending until its retries run out.
struct InflightCapRun {
  explicit InflightCapRun(ShedPolicy policy)
      : net(Topology::Grid(4), ExactLink(), TestSeed(41)) {
    auto program = ParseProgram(kTwoStreamJoin);
    EXPECT_TRUE(program.ok()) << program.status();
    net.FailNode(1);
    EngineOptions options;
    options.transport.reliable = true;
    options.budget.enabled = true;
    options.budget.max_inflight = 1;
    options.budget.policy = policy;
    auto created = DistributedEngine::Create(&net, *program, options);
    EXPECT_TRUE(created.ok()) << created.status();
    engine = std::move(created).value();
    RecordEnvelopedStores(&net, 0, &sent);
  }

  /// Injects r(k, 0, k) at node 0 at the current instant.
  Status Inject(StreamOp op, int k) {
    return engine->Inject(0, op, R(k));
  }
  static Fact R(int k) {
    return Fact(Intern("r"), {Term::Int(k), Term::Int(0), Term::Int(k)});
  }
  /// Stores of r(k, ...) node 0 sent toward `target`.
  size_t SentTo(int k, NodeId target) const {
    size_t n = 0;
    for (const StoreWire& w : sent) {
      if (w.fact == R(k) && w.final_target == target) ++n;
    }
    return n;
  }

  Network net;
  std::unique_ptr<DistributedEngine> engine;
  std::vector<StoreWire> sent;  ///< Stores node 0 sent in envelopes.
};

TEST(BudgetTest, InflightCapShedsArrivingInsertsButAdmitsDeletions) {
  InflightCapRun run(ShedPolicy::kShedNewest);
  const EngineStats& stats = run.engine->stats();
  // r(1)'s walk heads for dead node 1 and fills the cap.
  ASSERT_TRUE(run.Inject(StreamOp::kInsert, 1).ok());
  ASSERT_EQ(run.sent.size(), 1u);
  EXPECT_EQ(run.sent[0].final_target, 1);
  EXPECT_EQ(stats.sheds, 0u);
  // r(2)'s walk skips the suspected node 1 and is an insert: shed.
  ASSERT_TRUE(run.Inject(StreamOp::kInsert, 2).ok());
  EXPECT_EQ(stats.sheds, 1u);
  EXPECT_EQ(run.sent.size(), 1u);
  // Deleting r(1) is deletion-critical: admitted over the cap.
  ASSERT_TRUE(run.Inject(StreamOp::kDelete, 1).ok());
  EXPECT_EQ(stats.sheds, 1u);
  ASSERT_EQ(run.sent.size(), 2u);
  EXPECT_TRUE(run.sent[1].deletion);
  EXPECT_EQ(run.sent[1].fact, InflightCapRun::R(1));
  EXPECT_EQ(run.sent[1].final_target, 2);
  // The pending r(1) envelope was never evicted: it is retransmitted until
  // its retries run out.
  run.net.sim().Run();
  EXPECT_EQ(run.SentTo(1, 1), 5u);  // 1 + TransportOptions::max_retries
  EXPECT_EQ(run.SentTo(2, 2), 0u);
}

TEST(BudgetTest, InflightCapUnderFarthestWindowEvictsThePendingInsert) {
  InflightCapRun run(ShedPolicy::kShedFarthestWindow);
  const EngineStats& stats = run.engine->stats();
  ASSERT_TRUE(run.Inject(StreamOp::kInsert, 1).ok());
  ASSERT_EQ(run.sent.size(), 1u);
  // r(2) evicts r(1)'s pending insert envelope and is sent.
  ASSERT_TRUE(run.Inject(StreamOp::kInsert, 2).ok());
  EXPECT_EQ(stats.sheds, 1u);
  ASSERT_EQ(run.sent.size(), 2u);
  EXPECT_EQ(run.sent[1].fact, InflightCapRun::R(2));
  EXPECT_EQ(run.sent[1].final_target, 2);
  // The deletion of r(1) evicts r(2)'s envelope in turn.
  ASSERT_TRUE(run.Inject(StreamOp::kDelete, 1).ok());
  EXPECT_EQ(stats.sheds, 2u);
  ASSERT_EQ(run.sent.size(), 3u);
  EXPECT_TRUE(run.sent[2].deletion);
  // A pending deletion is never evicted: the next insert is shed instead.
  ASSERT_TRUE(run.Inject(StreamOp::kInsert, 3).ok());
  EXPECT_EQ(stats.sheds, 3u);
  EXPECT_EQ(run.sent.size(), 3u);
  // The evicted envelopes are never retransmitted.
  run.net.sim().Run();
  EXPECT_EQ(run.SentTo(1, 1), 1u);
  EXPECT_EQ(run.SentTo(2, 2), 1u);
}

TEST(BudgetTest, EvalBudgetShedsJoinWorkAsDegraded) {
  BudgetOptions b;
  b.enabled = true;
  b.max_eval_work = 1;
  // Same key every time: each arriving s matches many stored r replicas,
  // so a single storage event wants several join launches and the cap
  // sheds the rest.
  BudgetRun run = RunJoinWorkload(b, 6, 1, 1, 14);
  EXPECT_GT(run.stats.sheds, 0u);
  std::set<std::string> full = FullJoin(1, 1, 14);
  for (const std::string& f : run.results) {
    EXPECT_TRUE(full.count(f)) << "phantom result " << f;
  }
}

TEST(BudgetTest, SlowNodeStallsDeliveriesButStillConverges) {
  FaultPlan plan;
  plan.SlowNode(0, /*node=*/5, /*stall=*/20'000);
  BudgetOptions off;
  BudgetRun stalled = RunJoinWorkload(off, 4, 4, 1, 14, &plan);
  BudgetRun normal = RunJoinWorkload(off, 4, 4, 1, 14);
  EXPECT_GT(stalled.net.deliveries_stalled, 0u);
  EXPECT_EQ(normal.net.deliveries_stalled, 0u);
  // A straggler delays traffic; it must not change the answer.
  EXPECT_EQ(stalled.results, normal.results);
}

TEST(BudgetTest, MemSqueezeShrinksBudgetsMidRunViaFaultHook) {
  FaultPlan plan;
  plan.MemSqueeze(1'500'000, 0.5);
  BudgetOptions b;
  b.enabled = true;
  b.max_replicas_per_pred = 100;
  b.max_ingress = 100;
  BudgetRun run = RunJoinWorkload(b, 6, 6, 1, 14, &plan);
  EXPECT_EQ(run.stats.budget_squeezes, 1u);
  // With budgets off the hook is never registered: the squeeze is inert.
  BudgetOptions off;
  BudgetRun quiet = RunJoinWorkload(off, 6, 6, 1, 14, &plan);
  EXPECT_EQ(quiet.stats.budget_squeezes, 0u);
}

TEST(BudgetTest, ShedRunsAreDeterministic) {
  BudgetOptions b;
  b.enabled = true;
  b.max_replicas_per_pred = 2;
  b.max_eval_work = 4;
  BudgetRun a = RunJoinWorkload(b, 10, 10, 1, 1, nullptr, 1234);
  BudgetRun c = RunJoinWorkload(b, 10, 10, 1, 1, nullptr, 1234);
  EXPECT_EQ(a.results, c.results);
  EXPECT_EQ(a.undegraded, c.undegraded);
  EXPECT_EQ(a.stats.sheds, c.stats.sheds);
  EXPECT_EQ(a.net.TotalMessages(), c.net.TotalMessages());
}

}  // namespace
}  // namespace deduce
