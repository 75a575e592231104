#include "deduce/engine/engine.h"

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "deduce/common/rng.h"
#include "deduce/datalog/parser.h"

namespace deduce {
namespace {

Fact F(const std::string& pred, std::vector<Term> args) {
  return Fact(Intern(pred), std::move(args));
}

struct WorkItem {
  SimTime time;
  NodeId node;
  StreamOp op;
  Fact fact;
};

/// Zero-loss, zero-skew link for exact-equivalence tests.
LinkModel ExactLink() {
  LinkModel link;
  link.base_delay = 1'000;
  link.jitter = 500;
  link.per_byte_delay = 4;
  link.loss_rate = 0;
  link.max_clock_skew = 0;
  return link;
}

Program Parse(const std::string& text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

/// Runs the workload on the distributed engine and on the centralized
/// incremental reference; asserts the derived relations agree exactly
/// (Theorems 1-3: with bounded delays and no losses the distributed result
/// equals the sequential per-timestamp evaluation).
void CheckEquivalence(const std::string& program_text,
                      const Topology& topology,
                      const std::vector<WorkItem>& work,
                      const std::vector<std::string>& check_preds,
                      const EngineOptions& options = {}, uint64_t seed = 1) {
  Program program = Parse(program_text);

  Network net(topology, ExactLink(), seed);
  auto engine = DistributedEngine::Create(&net, program, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto reference = IncrementalEngine::Create(program, IncrementalOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (const WorkItem& item : work) {
    net.sim().RunUntil(item.time);
    Status st = (*engine)->Inject(item.node, item.op, item.fact);
    ASSERT_TRUE(st.ok()) << st << " at " << item.fact.ToString();
    StreamEvent ev;
    ev.op = item.op;
    ev.fact = item.fact;
    ev.id = TupleId{item.node, item.time, 0};
    ev.time = item.time;
    ASSERT_TRUE((*reference)->Apply(ev, nullptr).ok());
  }
  net.sim().Run();

  ASSERT_TRUE((*engine)->stats().errors.empty())
      << (*engine)->stats().errors[0];

  for (const std::string& pred_name : check_preds) {
    SymbolId pred = Intern(pred_name);
    std::vector<Fact> got = (*engine)->ResultFacts(pred);
    std::vector<Fact> want = (*reference)->AliveFacts(pred);
    std::set<std::string> got_set, want_set;
    for (const Fact& f : got) got_set.insert(f.ToString());
    for (const Fact& f : want) want_set.insert(f.ToString());
    EXPECT_EQ(got_set, want_set) << "predicate " << pred_name;
  }
}

constexpr char kJoinProgram[] = R"(
  .decl r/3 input.
  .decl s/3 input.
  t(X, A, B) :- r(X, A, N1), s(X, B, N2).
)";

// Facts carry their source node so workloads never generate the same fact
// at two different sources (the paper's tuples are sensor readings, which
// are naturally source-unique).
std::vector<WorkItem> TwoStreamWorkload(int nodes, int events, uint64_t seed,
                                        double delete_fraction = 0.0) {
  Rng rng(seed);
  std::vector<WorkItem> out;
  std::vector<std::pair<NodeId, Fact>> alive;
  SimTime t = 10'000;
  for (int i = 0; i < events; ++i, t += 150'000) {
    if (!alive.empty() && rng.Bernoulli(delete_fraction)) {
      size_t k = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(alive.size()) - 1));
      out.push_back({t, alive[k].first, StreamOp::kDelete, alive[k].second});
      alive.erase(alive.begin() + static_cast<long>(k));
      continue;
    }
    NodeId node = static_cast<NodeId>(rng.Uniform(0, nodes - 1));
    const char* pred = rng.Bernoulli(0.5) ? "r" : "s";
    Fact f = F(pred, {Term::Int(rng.Uniform(0, 3)), Term::Int(rng.Uniform(0, 9)),
                      Term::Int(node)});
    out.push_back({t, node, StreamOp::kInsert, f});
    alive.emplace_back(node, f);
  }
  return out;
}

TEST(EngineTest, TwoStreamJoinInsertOnly) {
  CheckEquivalence(kJoinProgram, Topology::Grid(5),
                   TwoStreamWorkload(25, 20, 42), {"t"});
}

TEST(EngineTest, TwoStreamJoinWithDeletions) {
  CheckEquivalence(kJoinProgram, Topology::Grid(5),
                   TwoStreamWorkload(25, 30, 43, 0.3), {"t"});
}

TEST(EngineTest, ThreeStreamJoin) {
  const char* program = R"(
    .decl a/2 input.
    .decl b/2 input.
    .decl c/2 input.
    out(X, N1, N2, N3) :- a(X, N1), b(X, N2), c(X, N3).
  )";
  Rng rng(7);
  std::vector<WorkItem> work;
  SimTime t = 10'000;
  const char* preds[] = {"a", "b", "c"};
  for (int i = 0; i < 18; ++i, t += 200'000) {
    NodeId node = static_cast<NodeId>(rng.Uniform(0, 15));
    work.push_back({t, node, StreamOp::kInsert,
                    F(preds[i % 3],
                      {Term::Int(rng.Uniform(0, 2)), Term::Int(node)})});
  }
  CheckEquivalence(program, Topology::Grid(4), work, {"out"});
}

TEST(EngineTest, NegationUncoveredVehicle) {
  const char* program = R"(
    .decl enemy/3 input.
    .decl friendly/3 input.
    cov(L1, L2, T) :- enemy(L1, T, N1), friendly(L2, T, N2),
                      dist(L1, L2) <= 5.0.
    uncov(L, T) :- enemy(L, T, N), NOT cov(L, L2, T).
  )";
  // NOTE: 'NOT cov(L, L2, T)' with free L2 is unsafe; use a correct form.
  const char* fixed = R"(
    .decl enemy/3 input.
    .decl friendly/3 input.
    cov(L1, T) :- enemy(L1, T, N1), friendly(L2, T, N2),
                  dist(L1, L2) <= 5.0.
    uncov(L, T) :- enemy(L, T, N), NOT cov(L, T).
  )";
  (void)program;
  Rng rng(11);
  std::vector<WorkItem> work;
  std::vector<std::pair<NodeId, Fact>> friendlies;
  SimTime t = 10'000;
  for (int i = 0; i < 24; ++i, t += 250'000) {
    NodeId node = static_cast<NodeId>(rng.Uniform(0, 24));
    if (!friendlies.empty() && rng.Bernoulli(0.25)) {
      size_t k = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(friendlies.size()) - 1));
      work.push_back(
          {t, friendlies[k].first, StreamOp::kDelete, friendlies[k].second});
      friendlies.erase(friendlies.begin() + static_cast<long>(k));
      continue;
    }
    Term loc = Term::Function(
        "loc", {Term::Int(rng.Uniform(0, 8)), Term::Int(rng.Uniform(0, 8))});
    if (rng.Bernoulli(0.5)) {
      work.push_back({t, node, StreamOp::kInsert,
                      F("enemy", {loc, Term::Int(1), Term::Int(node)})});
    } else {
      Fact f = F("friendly", {loc, Term::Int(1), Term::Int(node)});
      work.push_back({t, node, StreamOp::kInsert, f});
      friendlies.emplace_back(node, f);
    }
  }
  CheckEquivalence(fixed, Topology::Grid(5), work, {"cov", "uncov"});
}

TEST(EngineTest, DerivedStreamCascade) {
  // Two levels of derivation: t feeds u.
  const char* program = R"(
    .decl r/2 input.
    .decl s/2 input.
    t(X, N) :- r(X, N), s(X, N2).
    u(X) :- t(X, N), r(X, N).
  )";
  CheckEquivalence(program, Topology::Grid(4),
                   TwoStreamWorkload(16, 16, 17), {"t", "u"});
}

TEST(EngineTest, AllApproachesAgree) {
  // Naive Broadcast, Local Storage (serpentine) and Centroid are degenerate
  // GPA instances (§III-A): all must produce the PA result.
  std::vector<WorkItem> work = TwoStreamWorkload(16, 14, 99, 0.2);
  for (StoragePolicy storage :
       {StoragePolicy::kRow, StoragePolicy::kBroadcast, StoragePolicy::kLocal,
        StoragePolicy::kCentroid}) {
    EngineOptions options;
    options.planner.default_storage = storage;
    SCOPED_TRACE(StoragePolicyToString(storage));
    CheckEquivalence(kJoinProgram, Topology::Grid(4), work, {"t"}, options);
  }
}

TEST(EngineTest, MultipassMatchesSinglePass) {
  EngineOptions options;
  options.planner.multipass = true;
  CheckEquivalence(kJoinProgram, Topology::Grid(4),
                   TwoStreamWorkload(16, 16, 5, 0.2), {"t"}, options);
}

TEST(EngineTest, ArbitraryTopologyBands) {
  Rng rng(31);
  Topology topo = Topology::RandomGeometric(30, 6, 6, 2.0, &rng);
  ASSERT_TRUE(topo.IsConnected());
  CheckEquivalence(kJoinProgram, topo, TwoStreamWorkload(30, 16, 21, 0.2),
                   {"t"});
}

int PathHops(const RoutingTable& routing, const std::vector<NodeId>& path) {
  int hops = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    hops += routing.HopDistance(path[i], path[i + 1]);
  }
  return hops;
}

// Create walks one vertical path per distinct x coordinate. Its τ_s and τ_j
// must equal those derived from walking every node's vertical path, whose
// distinct lengths land in `vertical_walks`.
void ExpectTimingOfAnAllNodesWalk(const Topology& topo,
                                  std::set<int>* vertical_walks) {
  Network net(topo, ExactLink(), 1);
  EngineOptions options;  // PA: row storage, single-pass column sweeps
  auto engine = DistributedEngine::Create(&net, Parse(kJoinProgram), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  RegionMapper regions(&topo);
  RoutingTable routing(&topo);
  int storage = 0;
  for (NodeId v = 0; v < topo.node_count(); ++v) {
    storage = std::max(storage, PathHops(routing, regions.HorizontalPath(v)));
    vertical_walks->insert(PathHops(routing, regions.VerticalPath(v)));
  }
  int diameter = topo.DiameterHops();
  int sweep = std::max(*vertical_walks->rbegin(), diameter);
  SimTime hop = ExactLink().MaxHopDelay(kMaxMessageBytes);
  const EngineTiming& timing = (*engine)->timing();
  EXPECT_EQ(timing.tau_s,
            static_cast<SimTime>(options.timing_margin *
                                 static_cast<double>(hop * (storage + 2))));
  EXPECT_EQ(timing.tau_j, static_cast<SimTime>(
                              options.timing_margin *
                              static_cast<double>(hop * (diameter + sweep + 2))));
}

TEST(EngineTest, TimingMatchesAnAllNodesWalkOnAGrid) {
  std::set<int> vertical_walks;
  ExpectTimingOfAnAllNodesWalk(Topology::Grid(6), &vertical_walks);
}

TEST(EngineTest, TimingMatchesAnAllNodesWalkOnARandomGeometricGraph) {
  Rng rng(31);
  Topology topo = Topology::RandomGeometric(30, 6, 6, 2.0, &rng);
  ASSERT_TRUE(topo.IsConnected());
  std::set<int> vertical_walks;
  ExpectTimingOfAnAllNodesWalk(topo, &vertical_walks);
  // Columns differ in length here, so walking too few of them would show.
  EXPECT_GT(vertical_walks.size(), 1u);
}

TEST(EngineTest, RandomizedEquivalenceSweep) {
  for (uint64_t seed : {301u, 302u, 303u}) {
    CheckEquivalence(kJoinProgram, Topology::Grid(4),
                     TwoStreamWorkload(16, 24, seed, 0.25), {"t"});
  }
}

// --- the shortest-path-tree program (Example 3 / §VI) ---

constexpr char kLogicJ[] = R"(
  .decl g/2 input storage spatial 1.
  .decl j(y, d) home y stage d storage local.
  .decl j1(y, d) home y stage d storage local.
  j(0, 0).
  j1(Y, D + 1) :- j(Y, D2), (D + 1) > D2, j(X, D), g(X, Y).
  j(Y, D + 1) :- g(X, Y), j(X, D), NOT j1(Y, D + 1).
)";

TEST(EngineTest, LogicJBuildsBfsTreeOnGrid) {
  Topology topo = Topology::Grid(4);
  Network net(topo, ExactLink(), 3);
  Program program = Parse(kLogicJ);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();

  // Every node announces its adjacency (the g base stream), staggered.
  SimTime t = 10'000;
  for (int v = 0; v < topo.node_count(); ++v) {
    for (NodeId u : topo.neighbors(v)) {
      net.sim().RunUntil(t);
      ASSERT_TRUE(
          (*engine)
              ->Inject(v, StreamOp::kInsert, F("g", {Term::Int(v), Term::Int(u)}))
              .ok());
      t += 20'000;
    }
  }
  net.sim().Run();
  ASSERT_TRUE((*engine)->stats().errors.empty())
      << (*engine)->stats().errors[0];

  RoutingTable rt(&topo);
  std::vector<Fact> j = (*engine)->ResultFacts(Intern("j"));
  std::map<int, int> depth_of;
  for (const Fact& f : j) {
    int y = static_cast<int>(f.args()[0].value().as_int());
    int d = static_cast<int>(f.args()[1].value().as_int());
    auto [it, inserted] = depth_of.emplace(y, d);
    EXPECT_TRUE(inserted) << "two j facts for node " << y;
  }
  ASSERT_EQ(depth_of.size(), static_cast<size_t>(topo.node_count()));
  for (int v = 0; v < topo.node_count(); ++v) {
    EXPECT_EQ(depth_of[v], rt.HopDistance(v, 0)) << "node " << v;
  }
}

TEST(EngineTest, LogicJRepairsAfterEdgeDeletion) {
  // 0-1-2 line plus a long detour 0-3-4-5-2 (grid coordinates make this a
  // 3x2-ish shape); deleting edge 1-2 must raise node 2's depth.
  Topology topo = Topology::Grid(3);  // nodes 0..8
  Network net(topo, ExactLink(), 4);
  Program program = Parse(kLogicJ);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();

  SimTime t = 10'000;
  auto inject = [&](NodeId at, StreamOp op, int a, int b) {
    net.sim().RunUntil(t);
    ASSERT_TRUE(
        (*engine)->Inject(at, op, F("g", {Term::Int(a), Term::Int(b)})).ok());
    t += 30'000;
  };
  for (int v = 0; v < topo.node_count(); ++v) {
    for (NodeId u : topo.neighbors(v)) inject(v, StreamOp::kInsert, v, u);
  }
  net.sim().Run();

  // Node 2 (corner) initially at depth 2.
  auto depth = [&](int node) -> int {
    for (const Fact& f : (*engine)->ResultFacts(Intern("j"))) {
      if (f.args()[0].value().as_int() == node) {
        return static_cast<int>(f.args()[1].value().as_int());
      }
    }
    return -1;
  };
  EXPECT_EQ(depth(2), 2);

  // Remove both directions of edge 1-2: node 2 must now go through node 5.
  inject(1, StreamOp::kDelete, 1, 2);
  inject(2, StreamOp::kDelete, 2, 1);
  net.sim().Run();
  ASSERT_TRUE((*engine)->stats().errors.empty())
      << (*engine)->stats().errors[0];
  // Depths: 2 reachable via 0-3? grid 3x3: node 2=(2,0); without edge 1-2,
  // path 0-1-4-5-2 or 0-3-4-5-2 gives depth 4.
  EXPECT_EQ(depth(2), 4);
  EXPECT_EQ(depth(1), 1);
  EXPECT_EQ(depth(5), 3);
}

TEST(EngineTest, SlidingWindowStopsMatching) {
  const char* program = R"(
    .decl a(x, n) input window 1000000.
    .decl b(x, n) input window 1000000.
    both(X) :- a(X, N1), b(X, N2).
  )";
  Topology topo = Topology::Grid(4);
  Network net(topo, ExactLink(), 5);
  auto engine = DistributedEngine::Create(&net, Parse(program), EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  // a(1) at t=10ms; b(1) arrives at t=2s, after a's 1s window: no match.
  net.sim().RunUntil(10'000);
  ASSERT_TRUE(
      (*engine)->Inject(0, StreamOp::kInsert, F("a", {Term::Int(1), Term::Int(0)}))
          .ok());
  net.sim().RunUntil(2'000'000);
  ASSERT_TRUE(
      (*engine)->Inject(15, StreamOp::kInsert, F("b", {Term::Int(1), Term::Int(15)}))
          .ok());
  net.sim().Run();
  EXPECT_TRUE((*engine)->ResultFacts(Intern("both")).empty());

  // Fresh pair within the window: matches.
  Network net2(topo, ExactLink(), 6);
  auto engine2 =
      DistributedEngine::Create(&net2, Parse(program), EngineOptions{});
  ASSERT_TRUE(engine2.ok());
  net2.sim().RunUntil(10'000);
  ASSERT_TRUE((*engine2)
                  ->Inject(0, StreamOp::kInsert,
                           F("a", {Term::Int(1), Term::Int(0)}))
                  .ok());
  net2.sim().RunUntil(200'000);
  ASSERT_TRUE((*engine2)
                  ->Inject(15, StreamOp::kInsert,
                           F("b", {Term::Int(1), Term::Int(15)}))
                  .ok());
  net2.sim().Run();
  EXPECT_EQ((*engine2)->ResultFacts(Intern("both")).size(), 1u);
}

TEST(EngineTest, FactInjectedAtTwoNodesLivesUntilBothCopiesAreDeleted) {
  // Paper §IV Definition 2: a stream tuple is identified by its source and
  // timestamp, not by its fact. One fact injected at two nodes is two
  // tuples, and deleting one leaves the other alive and joining.
  Program program = Parse(kJoinProgram);
  Network net(Topology::Grid(4), ExactLink(), 7);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  Fact r = F("r", {Term::Int(1), Term::Int(5), Term::Int(0)});
  Fact t = F("t", {Term::Int(1), Term::Int(5), Term::Int(7)});
  auto step = [&](NodeId node, StreamOp op, const Fact& fact) {
    ASSERT_TRUE((*engine)->Inject(node, op, fact).ok());
    net.sim().Run();
  };
  step(2, StreamOp::kInsert, r);
  step(13, StreamOp::kInsert, r);
  step(6, StreamOp::kInsert,
       F("s", {Term::Int(1), Term::Int(7), Term::Int(6)}));
  EXPECT_EQ((*engine)->ResultFacts(Intern("t")), std::vector<Fact>{t});

  step(2, StreamOp::kDelete, r);
  EXPECT_EQ((*engine)->ResultFacts(Intern("t")), std::vector<Fact>{t});

  step(13, StreamOp::kDelete, r);
  EXPECT_TRUE((*engine)->ResultFacts(Intern("t")).empty());
  EXPECT_TRUE((*engine)->stats().errors.empty());
}

TEST(EngineTest, LossyNetworkDegradesGracefully) {
  // With loss, the engine must not crash; completeness may drop.
  LinkModel link = ExactLink();
  link.loss_rate = 0.1;
  Program program = Parse(kJoinProgram);
  Network net(Topology::Grid(4), link, 777);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok());
  std::vector<WorkItem> work = TwoStreamWorkload(16, 20, 888);
  for (const WorkItem& item : work) {
    net.sim().RunUntil(item.time);
    ASSERT_TRUE((*engine)->Inject(item.node, item.op, item.fact).ok());
  }
  net.sim().Run();
  // Result is a subset of the loss-free result.
  auto reference = IncrementalEngine::Create(program, IncrementalOptions{});
  ASSERT_TRUE(reference.ok());
  for (const WorkItem& item : work) {
    StreamEvent ev;
    ev.op = item.op;
    ev.fact = item.fact;
    ev.id = TupleId{item.node, item.time, 0};
    ev.time = item.time;
    ASSERT_TRUE((*reference)->Apply(ev, nullptr).ok());
  }
  std::set<std::string> want;
  for (const Fact& f : (*reference)->AliveFacts(Intern("t"))) {
    want.insert(f.ToString());
  }
  for (const Fact& f : (*engine)->ResultFacts(Intern("t"))) {
    EXPECT_TRUE(want.count(f.ToString())) << f.ToString();
  }
}

TEST(EngineTest, StatsPopulated) {
  Program program = Parse(kJoinProgram);
  Network net(Topology::Grid(4), ExactLink(), 9);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok());
  for (const WorkItem& item : TwoStreamWorkload(16, 10, 10)) {
    net.sim().RunUntil(item.time);
    ASSERT_TRUE((*engine)->Inject(item.node, item.op, item.fact).ok());
  }
  net.sim().Run();
  EXPECT_EQ((*engine)->stats().tuples_injected, 10u);
  EXPECT_GT((*engine)->stats().join_passes, 0u);
  EXPECT_GT((*engine)->stats().replicas_stored, 0u);
  EXPECT_GT(net.stats().TotalMessages(), 0u);
  EXPECT_GT((*engine)->TotalReplicas(), 0u);
}

TEST(EngineTest, InjectionErrors) {
  Program program = Parse(kJoinProgram);
  Network net(Topology::Grid(3), ExactLink(), 9);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok());
  // Derived predicate.
  EXPECT_EQ((*engine)
                ->Inject(0, StreamOp::kInsert,
                         F("t", {Term::Int(1), Term::Int(1), Term::Int(1)}))
                .code(),
            StatusCode::kInvalidArgument);
  // Unknown predicate.
  EXPECT_EQ(
      (*engine)->Inject(0, StreamOp::kInsert, F("zzz", {Term::Int(1)})).code(),
      StatusCode::kNotFound);
  // Deleting a tuple this node never generated.
  EXPECT_EQ((*engine)
                ->Inject(0, StreamOp::kDelete,
                         F("r", {Term::Int(1), Term::Int(1), Term::Int(1)}))
                .code(),
            StatusCode::kNotFound);
  // Node out of range.
  EXPECT_EQ(
      (*engine)->Inject(99, StreamOp::kInsert, F("r", {Term::Int(1)})).code(),
      StatusCode::kOutOfRange);
}

// --- centralized baseline ---

TEST(CentralizedEngineTest, MatchesReference) {
  Program program = Parse(kJoinProgram);
  Network net(Topology::Grid(4), ExactLink(), 12);
  auto engine =
      CentralizedEngine::Create(&net, program, /*sink=*/0, IncrementalOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto reference = IncrementalEngine::Create(program, IncrementalOptions{});
  ASSERT_TRUE(reference.ok());
  for (const WorkItem& item : TwoStreamWorkload(16, 20, 20, 0.2)) {
    net.sim().RunUntil(item.time);
    ASSERT_TRUE((*engine)->Inject(item.node, item.op, item.fact).ok());
    StreamEvent ev;
    ev.op = item.op;
    ev.fact = item.fact;
    ev.id = TupleId{item.node, item.time, 0};
    ev.time = item.time;
    ASSERT_TRUE((*reference)->Apply(ev, nullptr).ok());
  }
  net.sim().Run();
  EXPECT_TRUE((*engine)->errors().empty());
  std::set<std::string> got, want;
  for (const Fact& f : (*engine)->ResultFacts(Intern("t"))) {
    got.insert(f.ToString());
  }
  for (const Fact& f : (*reference)->AliveFacts(Intern("t"))) {
    want.insert(f.ToString());
  }
  EXPECT_EQ(got, want);
  EXPECT_GT(net.stats().TotalMessages(), 0u);
}

// --- planner ---

TEST(PlannerTest, StrategySelection) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  {
    PlannerOptions options;  // default row storage
    auto plan = CompilePlan(Parse(kJoinProgram), registry, options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (const DeltaPlan& d : plan->deltas) {
      EXPECT_EQ(d.strategy, JoinStrategy::kColumnSweep);
    }
  }
  {
    PlannerOptions options;
    options.default_storage = StoragePolicy::kBroadcast;
    auto plan = CompilePlan(Parse(kJoinProgram), registry, options);
    ASSERT_TRUE(plan.ok());
    for (const DeltaPlan& d : plan->deltas) {
      EXPECT_EQ(d.strategy, JoinStrategy::kLocalOnly);
    }
  }
  {
    PlannerOptions options;
    options.default_storage = StoragePolicy::kLocal;
    auto plan = CompilePlan(Parse(kJoinProgram), registry, options);
    ASSERT_TRUE(plan.ok());
    for (const DeltaPlan& d : plan->deltas) {
      EXPECT_EQ(d.strategy, JoinStrategy::kSerpentine);
    }
  }
  {
    PlannerOptions options;
    options.default_storage = StoragePolicy::kCentroid;
    auto plan = CompilePlan(Parse(kJoinProgram), registry, options);
    ASSERT_TRUE(plan.ok());
    for (const DeltaPlan& d : plan->deltas) {
      EXPECT_EQ(d.strategy, JoinStrategy::kCentroid);
    }
  }
  {
    auto plan = CompilePlan(Parse(kLogicJ), registry, PlannerOptions{});
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (const DeltaPlan& d : plan->deltas) {
      EXPECT_EQ(d.strategy, JoinStrategy::kLocalRoute)
          << d.ToString(plan->program);
    }
  }
}

TEST(PlannerTest, RejectsUnstratified) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  auto plan = CompilePlan(Parse("win(X) :- move(X, Y), NOT win(Y)."),
                          registry, PlannerOptions{});
  EXPECT_EQ(plan.status().code(), StatusCode::kUnimplemented);
}

TEST(PlannerTest, CompilesSingleSourceAggregates) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  auto plan = CompilePlan(Parse("m(G, max(X)) :- v(G, X, N)."), registry,
                          PlannerOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->aggregates.size(), 1u);
  EXPECT_EQ(plan->aggregates[0].kind, AggKind::kMax);
  EXPECT_EQ(plan->aggregates[0].agg_position, 1u);
  EXPECT_TRUE(plan->deltas.empty());  // aggregate rules skip join plans

  // Aggregates over multi-literal bodies stay unsupported.
  auto multi = CompilePlan(Parse("m(max(X)) :- a(X, Y), b(Y, Z)."), registry,
                           PlannerOptions{});
  EXPECT_EQ(multi.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace deduce
