// Distributed-engine edge cases: rule-less programs, duplicate facts from
// distinct sources, deletion/window interplay, and determinism.

#include <gtest/gtest.h>

#include <set>

#include "deduce/datalog/parser.h"
#include "deduce/engine/engine.h"

namespace deduce {
namespace {

LinkModel ExactLink() {
  LinkModel link;
  link.base_delay = 1'000;
  link.jitter = 500;
  link.per_byte_delay = 4;
  return link;
}

Program Parse(const std::string& text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(EngineEdgeTest, StorageOnlyProgram) {
  // No rules at all: injection replicates but derives nothing.
  Program program = Parse(".decl r/2 input.");
  Network net(Topology::Grid(4), ExactLink(), 1);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  net.sim().RunUntil(10'000);
  ASSERT_TRUE((*engine)
                  ->Inject(5, StreamOp::kInsert,
                           Fact(Intern("r"), {Term::Int(1), Term::Int(2)}))
                  .ok());
  net.sim().Run();
  EXPECT_TRUE((*engine)->stats().errors.empty());
  EXPECT_GT((*engine)->TotalReplicas(), 1u);  // replicated along the row
  EXPECT_EQ((*engine)->stats().results_emitted, 0u);
}

TEST(EngineEdgeTest, DisconnectedTopologyRejected) {
  // A sparse deployment that falls apart into components has no diameter
  // to bound Theorem 3's phases, and a message across the cut has no
  // route: Create refuses it instead of running into "no route" errors.
  Rng rng(1);
  Topology topo = Topology::RandomGeometric(60, 10, 10, 1.2, &rng);
  ASSERT_FALSE(topo.IsConnected());
  Program program = Parse(R"(
    .decl r/2 input.
    .decl s/2 input.
    t(X, Z) :- r(X, Y), s(Y, Z).
  )");
  EngineOptions options;
  options.budget.enabled = true;  // Create would register a fault hook
  Network net(std::move(topo), ExactLink(), 1);
  auto engine = DistributedEngine::Create(&net, program, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition)
      << engine.status();
  // The multi-tenant path installs through the same check.
  MultiTenantEngine tenants(options);
  ASSERT_TRUE(tenants.AddProgram("a", program).ok());
  EXPECT_EQ(tenants.Start(&net).code(), StatusCode::kFailedPrecondition);
}

TEST(EngineEdgeTest, DuplicateFactsFromDistinctSources) {
  // Two nodes generate the *same* fact. Each is a distinct tuple (own id);
  // a derivation survives while any support instance remains (§IV-A
  // set-of-derivations over tuple ids).
  const char* text = R"(
    .decl r/2 input.
    .decl s/2 input.
    t(X, Z) :- r(X, Y), s(Y, Z).
  )";
  Program program = Parse(text);
  Network net(Topology::Grid(4), ExactLink(), 2);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok());
  Fact r(Intern("r"), {Term::Int(1), Term::Int(2)});
  Fact s(Intern("s"), {Term::Int(2), Term::Int(3)});
  net.sim().RunUntil(10'000);
  ASSERT_TRUE((*engine)->Inject(3, StreamOp::kInsert, r).ok());
  net.sim().RunUntil(200'000);
  ASSERT_TRUE((*engine)->Inject(12, StreamOp::kInsert, r).ok());  // duplicate
  net.sim().RunUntil(400'000);
  ASSERT_TRUE((*engine)->Inject(9, StreamOp::kInsert, s).ok());
  net.sim().Run();
  EXPECT_EQ((*engine)->ResultFacts(Intern("t")).size(), 1u);

  // Deleting node 3's copy leaves node 12's derivation alive.
  net.sim().RunUntil(net.sim().now() + 100'000);
  ASSERT_TRUE((*engine)->Inject(3, StreamOp::kDelete, r).ok());
  net.sim().Run();
  EXPECT_EQ((*engine)->ResultFacts(Intern("t")).size(), 1u);

  // Deleting the second copy retracts the result.
  net.sim().RunUntil(net.sim().now() + 100'000);
  ASSERT_TRUE((*engine)->Inject(12, StreamOp::kDelete, r).ok());
  net.sim().Run();
  EXPECT_TRUE((*engine)->ResultFacts(Intern("t")).empty());
  EXPECT_TRUE((*engine)->stats().errors.empty());
}

TEST(EngineEdgeTest, DeleteThenReinsertRevives) {
  const char* text = R"(
    .decl r/2 input.
    .decl s/2 input.
    t(X, Z) :- r(X, Y), s(Y, Z).
  )";
  Program program = Parse(text);
  Network net(Topology::Grid(4), ExactLink(), 3);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok());
  Fact r(Intern("r"), {Term::Int(1), Term::Int(2)});
  Fact s(Intern("s"), {Term::Int(2), Term::Int(3)});
  net.sim().RunUntil(10'000);
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kInsert, r).ok());
  net.sim().RunUntil(200'000);
  ASSERT_TRUE((*engine)->Inject(15, StreamOp::kInsert, s).ok());
  net.sim().Run();
  ASSERT_EQ((*engine)->ResultFacts(Intern("t")).size(), 1u);

  net.sim().RunUntil(net.sim().now() + 50'000);
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kDelete, r).ok());
  net.sim().Run();
  ASSERT_TRUE((*engine)->ResultFacts(Intern("t")).empty());

  // Reinsert at the same node: a fresh generation revives the result.
  net.sim().RunUntil(net.sim().now() + 50'000);
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kInsert, r).ok());
  net.sim().Run();
  EXPECT_EQ((*engine)->ResultFacts(Intern("t")).size(), 1u);
  EXPECT_TRUE((*engine)->stats().errors.empty());
}

TEST(EngineEdgeTest, DoubleDeleteRejectedAtSource) {
  Program program = Parse(".decl r/2 input.");
  Network net(Topology::Grid(3), ExactLink(), 4);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok());
  Fact r(Intern("r"), {Term::Int(1), Term::Int(2)});
  net.sim().RunUntil(10'000);
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kInsert, r).ok());
  net.sim().RunUntil(100'000);
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kDelete, r).ok());
  net.sim().RunUntil(200'000);
  // The tuple is already deletion-marked: a second delete finds nothing.
  EXPECT_EQ((*engine)->Inject(0, StreamOp::kDelete, r).code(),
            StatusCode::kNotFound);
}

TEST(EngineEdgeTest, DeterministicAcrossRuns) {
  const char* text = R"(
    .decl r/3 input.
    .decl s/3 input.
    t(K, N1, N2) :- r(K, N1, I1), s(K, N2, I2).
  )";
  auto run = [&](uint64_t seed) {
    Program program = Parse(text);
    Network net(Topology::Grid(4), ExactLink(), seed);
    auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
    EXPECT_TRUE(engine.ok());
    Rng rng(seed);
    SimTime t = 10'000;
    for (int i = 0; i < 12; ++i, t += 100'000) {
      net.sim().RunUntil(t);
      NodeId node = static_cast<NodeId>(rng.Uniform(0, 15));
      (void)(*engine)->Inject(
          node, StreamOp::kInsert,
          Fact(Intern(i % 2 ? "r" : "s"),
               {Term::Int(rng.Uniform(0, 2)), Term::Int(node), Term::Int(i)}));
    }
    net.sim().Run();
    return std::make_tuple(net.stats().TotalMessages(),
                           net.stats().TotalBytes(),
                           (*engine)->ResultFacts(Intern("t")).size());
  };
  EXPECT_EQ(run(42), run(42));
  // Different seed: same results (zero loss), traffic may differ by jitter.
  auto a = run(42);
  auto b = run(43);
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

TEST(EngineEdgeTest, WindowedDeletionBeforeExpiry) {
  const char* text = R"(
    .decl a(x, n) input window 2000000.
    .decl b(x, n) input window 2000000.
    both(X) :- a(X, N1), b(X, N2).
  )";
  Program program = Parse(text);
  Network net(Topology::Grid(4), ExactLink(), 5);
  auto engine = DistributedEngine::Create(&net, program, EngineOptions{});
  ASSERT_TRUE(engine.ok());
  Fact a(Intern("a"), {Term::Int(1), Term::Int(0)});
  net.sim().RunUntil(10'000);
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kInsert, a).ok());
  // Explicit deletion long before the 2 s window would expire it.
  net.sim().RunUntil(300'000);
  ASSERT_TRUE((*engine)->Inject(0, StreamOp::kDelete, a).ok());
  net.sim().RunUntil(600'000);
  ASSERT_TRUE((*engine)
                  ->Inject(15, StreamOp::kInsert,
                           Fact(Intern("b"), {Term::Int(1), Term::Int(15)}))
                  .ok());
  net.sim().Run();
  EXPECT_TRUE((*engine)->ResultFacts(Intern("both")).empty());
  EXPECT_TRUE((*engine)->stats().errors.empty());
}

}  // namespace
}  // namespace deduce
