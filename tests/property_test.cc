// Cross-cutting property tests: randomized workloads and inputs checked
// against executable specifications.

#include <gtest/gtest.h>

#include <set>

#include "deduce/common/rng.h"
#include "deduce/datalog/parser.h"
#include "deduce/eval/incremental.h"
#include "deduce/eval/magic.h"
#include "deduce/eval/seminaive.h"

namespace deduce {
namespace {

// ---------------------------------------------------------------------------
// Windowed incremental maintenance vs from-scratch recomputation over the
// window contents at every step.
// ---------------------------------------------------------------------------

TEST(WindowPropertyTest, IncrementalMatchesWindowedRecompute) {
  constexpr Timestamp kWindow = 500;
  const std::string program_text = R"(
    .decl a(x, n) input window 500.
    .decl b(x, n) input window 500.
    t(X, N1, N2) :- a(X, N1), b(X, N2).
  )";
  auto program = ParseProgram(program_text);
  ASSERT_TRUE(program.ok());

  for (uint64_t seed : {1u, 2u, 3u}) {
    auto engine = IncrementalEngine::Create(*program, IncrementalOptions{});
    ASSERT_TRUE(engine.ok());
    Rng rng(seed);
    struct Base {
      Fact fact;
      Timestamp gen;
      bool deleted = false;
    };
    std::vector<Base> history;
    Timestamp t = 0;
    uint32_t seq = 0;
    for (int step = 0; step < 80; ++step) {
      t += rng.Uniform(10, 120);
      StreamEvent ev;
      ev.time = t;
      // Mostly inserts; sometimes delete a still-alive in-window fact.
      std::vector<size_t> deletable;
      for (size_t i = 0; i < history.size(); ++i) {
        if (!history[i].deleted && history[i].gen + kWindow > t) {
          deletable.push_back(i);
        }
      }
      if (!deletable.empty() && rng.Bernoulli(0.25)) {
        size_t k = deletable[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(deletable.size()) - 1))];
        ev.op = StreamOp::kDelete;
        ev.fact = history[k].fact;
        history[k].deleted = true;
      } else {
        ev.op = StreamOp::kInsert;
        ev.fact = Fact(Intern(rng.Bernoulli(0.5) ? "a" : "b"),
                       {Term::Int(rng.Uniform(0, 3)), Term::Int(step)});
        ev.id = TupleId{0, t, seq++};
        history.push_back(Base{ev.fact, t});
      }
      ASSERT_TRUE((*engine)->Apply(ev, nullptr).ok());

      // Specification: evaluate the program over exactly the base facts
      // whose window still covers time t and that are not deleted.
      std::vector<Fact> in_window;
      for (const Base& b : history) {
        if (!b.deleted && b.gen + kWindow > t) in_window.push_back(b.fact);
      }
      auto expected = EvaluateProgram(*program, in_window);
      ASSERT_TRUE(expected.ok());
      std::set<std::string> got, want;
      for (const Fact& f : (*engine)->AliveFacts(Intern("t"))) {
        got.insert(f.ToString());
      }
      for (const Fact& f : expected->Relation(Intern("t"))) {
        want.insert(f.ToString());
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step << " t="
                           << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Random non-recursive programs: full evaluation vs magic sets on random
// goals, and monotonicity for positive programs.
// ---------------------------------------------------------------------------

struct RandomProgram {
  Program program;
  std::vector<SymbolId> idb;
};

/// Builds a random layered positive program: edb0/edb1 at the bottom, a few
/// derived layers of join/project rules above.
RandomProgram MakeRandomPositiveProgram(Rng* rng, int layers) {
  std::string text;
  std::vector<std::string> previous = {"edb0", "edb1"};
  std::vector<SymbolId> idb;
  for (int layer = 0; layer < layers; ++layer) {
    std::string name = "d";
    name += std::to_string(layer);
    idb.push_back(Intern(name));
    int rules = static_cast<int>(rng->Uniform(1, 2));
    for (int r = 0; r < rules; ++r) {
      const std::string& p1 =
          previous[static_cast<size_t>(rng->Uniform(
              0, static_cast<int64_t>(previous.size()) - 1))];
      const std::string& p2 =
          previous[static_cast<size_t>(rng->Uniform(
              0, static_cast<int64_t>(previous.size()) - 1))];
      switch (rng->Uniform(0, 2)) {
        case 0:  // join
          text += name + "(X, Z) :- " + p1 + "(X, Y), " + p2 + "(Y, Z).\n";
          break;
        case 1:  // swap/project
          text += name + "(Y, X) :- " + p1 + "(X, Y).\n";
          break;
        default:  // filtered copy
          text += name + "(X, Y) :- " + p1 + "(X, Y), X < Y.\n";
          break;
      }
    }
    previous.push_back(name);
  }
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status() << "\n" << text;
  return RandomProgram{std::move(program).value(), std::move(idb)};
}

std::vector<Fact> RandomEdb(Rng* rng, int n) {
  std::vector<Fact> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(Intern(rng->Bernoulli(0.5) ? "edb0" : "edb1"),
                     std::vector<Term>{Term::Int(rng->Uniform(0, 5)),
                                       Term::Int(rng->Uniform(0, 5))});
  }
  return out;
}

TEST(RandomProgramPropertyTest, MagicAgreesWithFullEvaluation) {
  Rng rng(2009);
  for (int trial = 0; trial < 15; ++trial) {
    RandomProgram rp = MakeRandomPositiveProgram(&rng, 3);
    std::vector<Fact> edb = RandomEdb(&rng, 25);
    auto full = EvaluateProgram(rp.program, edb);
    ASSERT_TRUE(full.ok()) << full.status();
    // Random goal over a random derived predicate, first argument bound.
    SymbolId goal_pred = rp.idb[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(rp.idb.size()) - 1))];
    Atom goal(goal_pred,
              {Term::Int(rng.Uniform(0, 5)), Term::Var("Ans")});
    auto magic = MagicEvaluate(rp.program, goal, edb);
    ASSERT_TRUE(magic.ok()) << magic.status();
    std::set<std::string> got, want;
    for (const Fact& f : *magic) got.insert(f.ToString());
    BuiltinRegistry registry = BuiltinRegistry::Default();
    for (const Fact& f : full->Relation(goal_pred)) {
      Subst subst;
      if (SolveMatchTerms(goal.args, f.args(), &subst, registry)) {
        want.insert(f.ToString());
      }
    }
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(RandomProgramPropertyTest, PositiveProgramsAreMonotone) {
  Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    RandomProgram rp = MakeRandomPositiveProgram(&rng, 3);
    std::vector<Fact> small = RandomEdb(&rng, 15);
    std::vector<Fact> big = small;
    for (const Fact& extra : RandomEdb(&rng, 10)) big.push_back(extra);
    auto db_small = EvaluateProgram(rp.program, small);
    auto db_big = EvaluateProgram(rp.program, big);
    ASSERT_TRUE(db_small.ok());
    ASSERT_TRUE(db_big.ok());
    for (SymbolId pred : rp.idb) {
      for (const Fact& f : db_small->Relation(pred)) {
        EXPECT_TRUE(db_big->Contains(f))
            << "monotonicity violated: " << f.ToString();
      }
    }
  }
}

TEST(RandomProgramPropertyTest, IncrementalInsertOnlyEqualsBatch) {
  Rng rng(777);
  for (int trial = 0; trial < 8; ++trial) {
    RandomProgram rp = MakeRandomPositiveProgram(&rng, 2);
    std::vector<Fact> edb = RandomEdb(&rng, 20);
    auto engine = IncrementalEngine::Create(rp.program, IncrementalOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status();
    Timestamp t = 1;
    uint32_t seq = 0;
    for (const Fact& f : edb) {
      StreamEvent ev;
      ev.op = StreamOp::kInsert;
      ev.fact = f;
      ev.id = TupleId{0, t, seq++};
      ev.time = t++;
      ASSERT_TRUE((*engine)->Apply(ev, nullptr).ok());
    }
    auto batch = EvaluateProgram(rp.program, edb);
    ASSERT_TRUE(batch.ok());
    for (SymbolId pred : rp.idb) {
      std::set<std::string> got, want;
      for (const Fact& f : (*engine)->AliveFacts(pred)) {
        got.insert(f.ToString());
      }
      for (const Fact& f : batch->Relation(pred)) want.insert(f.ToString());
      ASSERT_EQ(got, want) << SymbolName(pred) << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Parser fuzz: arbitrary byte soup must produce a Status, never a crash.
// ---------------------------------------------------------------------------

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(31337);
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    size_t len = static_cast<size_t>(rng.Uniform(0, 80));
    for (size_t b = 0; b < len; ++b) {
      text += static_cast<char>(rng.Uniform(1, 255));
    }
    (void)ParseProgram(text);
    (void)ParseTerm(text);
    (void)ParseRule(text);
  }
  SUCCEED();
}

TEST(ParserFuzzTest, MutatedValidProgramsNeverCrash) {
  const std::string valid = R"(
    .decl veh(type, x, t) input window 30.
    cov(L, T) :- veh("enemy", L, T), veh("friendly", L2, T),
                 dist(L, L2) <= 5.
    uncov(L, T) :- veh("enemy", L, T), NOT cov(L, T).
    traj([R2, X | R]) :- traj([X | R]), report(R2), close(X, R2).
  )";
  Rng rng(99);
  for (int i = 0; i < 1500; ++i) {
    std::string text = valid;
    int mutations = static_cast<int>(rng.Uniform(1, 4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(text.size()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          text[pos] = static_cast<char>(rng.Uniform(32, 126));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, static_cast<char>(rng.Uniform(32, 126)));
          break;
      }
    }
    (void)ParseProgram(text);  // must not crash
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Term total order: comparison laws on random terms.
// ---------------------------------------------------------------------------

Term RandomTerm(Rng* rng, int depth = 0) {
  switch (rng->Uniform(0, depth >= 2 ? 2 : 3)) {
    case 0:
      return Term::Int(rng->Uniform(-5, 5));
    case 1:
      return Term::Sym(rng->Bernoulli(0.5) ? "a" : "b");
    case 2:
      return Term::Var(rng->Bernoulli(0.5) ? "X" : "Y");
    default: {
      std::vector<Term> args;
      int n = static_cast<int>(rng->Uniform(0, 2));
      for (int i = 0; i < n; ++i) args.push_back(RandomTerm(rng, depth + 1));
      return Term::Function(rng->Bernoulli(0.5) ? "f" : "g", std::move(args));
    }
  }
}

TEST(TermOrderPropertyTest, CompareIsATotalOrder) {
  Rng rng(5150);
  std::vector<Term> terms;
  for (int i = 0; i < 60; ++i) terms.push_back(RandomTerm(&rng));
  for (const Term& a : terms) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const Term& b : terms) {
      // Antisymmetry.
      EXPECT_EQ(a.Compare(b), -b.Compare(a))
          << a.ToString() << " vs " << b.ToString();
      // Consistency with equality.
      if (a == b) {
        EXPECT_EQ(a.Compare(b), 0);
      }
      for (const Term& c : terms) {
        // Transitivity (<=).
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST(TermOrderPropertyTest, HashEqualsForEqualTerms) {
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    Term t = RandomTerm(&rng);
    // Rebuild structurally.
    auto rebuilt = ParseTerm(t.ToString());
    ASSERT_TRUE(rebuilt.ok()) << t.ToString();
    EXPECT_EQ(*rebuilt, t);
    EXPECT_EQ(rebuilt->Hash(), t.Hash());
  }
}

}  // namespace
}  // namespace deduce
