// Parameterized distributed-vs-centralized equivalence sweeps: the repo's
// central invariant (Theorems 1-3) checked across the full cross product of
// GPA approaches, topologies, schemes and workload seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "deduce/common/rng.h"
#include "deduce/datalog/parser.h"
#include "deduce/engine/engine.h"

namespace deduce {
namespace {

// `u` gives the join probe's ground-column filter work: when r is the
// update, the q literal has a bound variable (K), a constant, a repeated
// variable (M) and arithmetic over a bound variable (N + 1).
constexpr char kJoinNegProgram[] = R"(
  .decl r/3 input.
  .decl s/3 input.
  .decl block/2 input.
  .decl q/5 input.
  t(K, N1, N2) :- r(K, N1, I1), s(K, N2, I2).
  ok(K, N1, N2) :- t(K, N1, N2), NOT block(K, N1).
  u(K, N, M) :- r(K, N, I), q(K, 2, M, M, N + 1).
)";

struct SweepCase {
  std::string name;
  StoragePolicy storage;
  bool multipass;
  bool random_topology;
  uint64_t seed;
};

// How the probe of an r update meets each alive q row, by the column of
// q(K, 2, M, M, N + 1) that first rejects it. The filter compares the
// ground columns (K, 2, N + 1) in column order; the repeated M is left to
// the matcher.
struct ProbeOutcomes {
  int key = 0;
  int constant = 0;
  int arithmetic = 0;
  int repeated = 0;
  int match = 0;
};

void ClassifyProbe(const Fact& r, const Fact& q, ProbeOutcomes* out) {
  int64_t k = r.args()[0].value().as_int();
  int64_t n = r.args()[1].value().as_int();
  auto arg = [&](size_t i) { return q.args()[i].value().as_int(); };
  if (arg(0) != k) {
    ++out->key;
  } else if (arg(1) != 2) {
    ++out->constant;
  } else if (arg(4) != n + 1) {
    ++out->arithmetic;
  } else if (arg(2) != arg(3)) {
    ++out->repeated;
  } else {
    ++out->match;
  }
}

class EquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EquivalenceSweep, DistributedMatchesCentralized) {
  const SweepCase& param = GetParam();
  Topology topo;
  if (param.random_topology) {
    Rng trng(param.seed);
    do {
      topo = Topology::RandomGeometric(24, 6, 6, 2.2, &trng);
    } while (!topo.IsConnected());
  } else {
    topo = Topology::Grid(4);
  }

  auto parsed = ParseProgram(kJoinNegProgram);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  LinkModel link;
  link.max_clock_skew = 0;
  Network net(topo, link, param.seed);
  EngineOptions options;
  options.planner.default_storage = param.storage;
  options.planner.multipass = param.multipass;
  auto engine = DistributedEngine::Create(&net, *parsed, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto reference = IncrementalEngine::Create(*parsed, IncrementalOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status();

  Rng rng(param.seed * 77 + 13);
  const int n = topo.node_count();
  std::vector<std::pair<NodeId, Fact>> alive;
  int q_inserted = 0;
  ProbeOutcomes outcomes;
  SimTime t = 10'000;
  for (int i = 0; i < 64; ++i, t += 150'000) {
    net.sim().RunUntil(t);
    StreamEvent ev;
    ev.time = t;
    ev.id = TupleId{0, t, 0};
    if (!alive.empty() && rng.Bernoulli(0.25)) {
      size_t k = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(alive.size()) - 1));
      ev.op = StreamOp::kDelete;
      ev.fact = alive[k].second;
      ev.id.source = alive[k].first;
      ASSERT_TRUE(
          (*engine)->Inject(alive[k].first, StreamOp::kDelete, ev.fact).ok());
      alive.erase(alive.begin() + static_cast<long>(k));
    } else {
      NodeId node = static_cast<NodeId>(rng.Uniform(0, n - 1));
      int which = static_cast<int>(rng.Uniform(0, 3));
      Fact f;
      if (which == 0) {
        // Most r updates aim at an alive q: its key, and N + 1 equal to
        // its last argument.
        std::vector<const Fact*> qs;
        for (const auto& [at, g] : alive) {
          if (g.predicate() == Intern("q")) qs.push_back(&g);
        }
        int64_t key = rng.Uniform(0, 3);
        if (!qs.empty() && rng.Bernoulli(0.75)) {
          const Fact& q = *qs[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(qs.size()) - 1))];
          key = q.args()[0].value().as_int();
          node = static_cast<NodeId>(q.args()[4].value().as_int() - 1);
        }
        f = Fact(Intern("r"), {Term::Int(key), Term::Int(node), Term::Int(i)});
      } else if (which == 1) {
        f = Fact(Intern("s"), {Term::Int(rng.Uniform(0, 3)), Term::Int(node),
                               Term::Int(i)});
      } else if (which == 2) {
        f = Fact(Intern("block"), {Term::Int(rng.Uniform(0, 3)),
                                   Term::Int(rng.Uniform(0, n - 1))});
      } else {
        // Shapes cycle: matchable, wrong constant, unequal repeated M.
        int shape = q_inserted % 3;
        int64_t m = rng.Uniform(0, 1);
        f = Fact(Intern("q"),
                 {Term::Int(rng.Uniform(0, 3)), Term::Int(shape == 1 ? 3 : 2),
                  Term::Int(m), Term::Int(shape == 2 ? 1 - m : m),
                  Term::Int(rng.Uniform(1, n))});
      }
      // The oracle keeps one copy of a fact, the engine one per injection
      // (one TupleId each), so a fact is never injected while it is alive.
      if (std::any_of(alive.begin(), alive.end(),
                      [&](const auto& a) { return a.second == f; })) {
        continue;
      }
      if (f.predicate() == Intern("r")) {
        for (const auto& [at, g] : alive) {
          if (g.predicate() == Intern("q")) ClassifyProbe(f, g, &outcomes);
        }
      }
      if (f.predicate() == Intern("q")) ++q_inserted;
      ev.op = StreamOp::kInsert;
      ev.fact = f;
      ev.id.source = node;
      ASSERT_TRUE((*engine)->Inject(node, StreamOp::kInsert, f).ok());
      alive.emplace_back(node, f);
    }
    ASSERT_TRUE((*reference)->Apply(ev, nullptr).ok());
  }
  net.sim().Run();
  ASSERT_TRUE((*engine)->stats().errors.empty())
      << (*engine)->stats().errors[0];

  EXPECT_GT(outcomes.match, 0);
  EXPECT_GT(outcomes.key, 0);
  EXPECT_GT(outcomes.constant, 0);
  EXPECT_GT(outcomes.arithmetic, 0);
  EXPECT_GT(outcomes.repeated, 0);

  for (const char* pred : {"t", "ok", "u"}) {
    std::set<std::string> got, want;
    for (const Fact& f : (*engine)->ResultFacts(Intern(pred))) {
      got.insert(f.ToString());
    }
    for (const Fact& f : (*reference)->AliveFacts(Intern(pred))) {
      want.insert(f.ToString());
    }
    EXPECT_EQ(got, want) << pred << " under " << param.name;
  }
}

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  struct Policy {
    const char* name;
    StoragePolicy storage;
  };
  for (Policy p : std::vector<Policy>{{"pa", StoragePolicy::kRow},
                                      {"bcast", StoragePolicy::kBroadcast},
                                      {"local", StoragePolicy::kLocal},
                                      {"centroid", StoragePolicy::kCentroid}}) {
    for (bool multipass : {false, true}) {
      for (bool random_topo : {false, true}) {
        for (uint64_t seed : {1u, 2u}) {
          // Multipass only affects sweep strategies; skip redundant combos.
          if (multipass && p.storage != StoragePolicy::kRow &&
              p.storage != StoragePolicy::kLocal) {
            continue;
          }
          SweepCase c;
          c.name = std::string(p.name) + (multipass ? "_multi" : "_single") +
                   (random_topo ? "_rgg" : "_grid") + "_s" +
                   std::to_string(seed);
          c.storage = p.storage;
          c.multipass = multipass;
          c.random_topology = random_topo;
          c.seed = seed;
          cases.push_back(std::move(c));
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, EquivalenceSweep,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return info.param.name;
                         });

// Partial results track matched body literals in a 32-bit mask (1u << i),
// so literal index 31 is the last representable one. The planner must
// accept 31 body literals and reject 32 with a clear diagnostic instead of
// shifting by 32 at runtime (undefined behavior).
std::string WideRuleProgram(int literals) {
  std::string text;
  std::string body;
  for (int i = 0; i < literals; ++i) {
    std::string pred = "b";
    pred += std::to_string(i);
    text += ".decl " + pred + "/1 input.\n";
    body += (i == 0 ? "" : ", ") + pred + "(X)";
  }
  text += "wide(X) :- " + body + ".\n";
  return text;
}

TEST(PlanMaskLimit, AcceptsThirtyOneBodyLiterals) {
  auto program = ParseProgram(WideRuleProgram(31));
  ASSERT_TRUE(program.ok()) << program.status();
  auto plan = CompilePlan(*program, BuiltinRegistry::Default(),
                          PlannerOptions{});
  EXPECT_TRUE(plan.ok()) << plan.status();
}

TEST(PlanMaskLimit, RejectsThirtyTwoBodyLiterals) {
  auto program = ParseProgram(WideRuleProgram(32));
  ASSERT_TRUE(program.ok()) << program.status();
  auto plan = CompilePlan(*program, BuiltinRegistry::Default(),
                          PlannerOptions{});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(plan.status().message().find("32 bits"), std::string::npos)
      << plan.status();
}

}  // namespace
}  // namespace deduce
