#include "deduce/eval/rule_eval.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "deduce/datalog/analysis.h"
#include "deduce/datalog/parser.h"

namespace deduce {
namespace {

class RuleEvalTest : public ::testing::Test {
 protected:
  RuleEvalTest() : registry_(BuiltinRegistry::Default()) {}

  void Add(const std::string& fact_text) {
    Rule r = ParseRule(fact_text + ".").value();
    db_.Insert(Fact(r.head.predicate, r.head.args));
  }

  std::set<std::string> Heads(const std::string& rule_text,
                              RuleEvalOptions opts = {}) {
    Rule rule = ParseRule(rule_text).value();
    BuiltinRegistry reg = registry_;
    Program p;  // resolve builtins: fake via a one-rule program
    EXPECT_TRUE(p.AddRule(rule).ok());
    EXPECT_TRUE(ResolveBuiltins(&p, reg).ok());
    RuleBodyEvaluator evaluator(&p.rules()[0], &registry_);
    std::set<std::string> out;
    Status st = evaluator.Evaluate(
        db_, opts,
        [&](const Subst& subst, const std::vector<MatchedFact>&) -> Status {
          auto head = evaluator.BuildHead(subst);
          EXPECT_TRUE(head.ok()) << head.status();
          out.insert(head->ToString());
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  BuiltinRegistry registry_;
  Database db_;
};

TEST_F(RuleEvalTest, SimpleJoin) {
  Add("r(1, 2)");
  Add("r(2, 3)");
  Add("s(2, 9)");
  auto heads = Heads("t(X, Z) :- r(X, Y), s(Y, Z).");
  EXPECT_EQ(heads, (std::set<std::string>{"t(1, 9)"}));
}

TEST_F(RuleEvalTest, SelfJoin) {
  Add("e(1, 2)");
  Add("e(2, 3)");
  Add("e(2, 4)");
  auto heads = Heads("p(X, Z) :- e(X, Y), e(Y, Z).");
  EXPECT_EQ(heads, (std::set<std::string>{"p(1, 3)", "p(1, 4)"}));
}

TEST_F(RuleEvalTest, NegationFilters) {
  Add("n(1)");
  Add("n(2)");
  Add("bad(2)");
  auto heads = Heads("good(X) :- n(X), NOT bad(X).");
  EXPECT_EQ(heads, (std::set<std::string>{"good(1)"}));
}

TEST_F(RuleEvalTest, ComparisonsPrune) {
  Add("n(1)");
  Add("n(5)");
  Add("n(9)");
  auto heads = Heads("mid(X) :- n(X), X > 2, X < 8.");
  EXPECT_EQ(heads, (std::set<std::string>{"mid(5)"}));
}

TEST_F(RuleEvalTest, ArithmeticHead) {
  Add("n(4)");
  auto heads = Heads("double(X, X * 2 + 1) :- n(X).");
  EXPECT_EQ(heads, (std::set<std::string>{"double(4, 9)"}));
}

TEST_F(RuleEvalTest, AssignmentBindsAndInverts) {
  Add("n(10)");
  EXPECT_EQ(Heads("a(Y) :- n(X), Y = X + 5."),
            (std::set<std::string>{"a(15)"}));
  // Inversion: bound = pattern-with-arithmetic.
  EXPECT_EQ(Heads("b(Y) :- n(X), X = Y + 3."),
            (std::set<std::string>{"b(7)"}));
}

TEST_F(RuleEvalTest, ListDestructuring) {
  Add("l([1, 2, 3])");
  auto heads = Heads("ht(H, T) :- l(L), L = [H | T].");
  EXPECT_EQ(heads, (std::set<std::string>{"ht(1, [2, 3])"}));
}

TEST_F(RuleEvalTest, BuiltinPredicate) {
  Add("l([1, 2, 3])");
  Add("n(2)");
  Add("n(7)");
  auto heads = Heads("in(X) :- n(X), l(L), member(X, L).");
  EXPECT_EQ(heads, (std::set<std::string>{"in(2)"}));
}

TEST_F(RuleEvalTest, PinnedPositiveRestrictsMatches) {
  Add("r(1, 2)");
  Add("r(5, 6)");
  Add("s(2, 8)");
  Add("s(6, 9)");
  Rule rule = ParseRule("t(X, Z) :- r(X, Y), s(Y, Z).").value();
  RuleBodyEvaluator evaluator(&rule, &registry_);
  std::vector<std::pair<Fact, TupleId>> pin = {
      {Fact(Intern("r"), {Term::Int(1), Term::Int(2)}), TupleId{7, 1, 0}}};
  RuleEvalOptions opts;
  opts.pin_index = 0;
  opts.pin_facts = &pin;
  std::set<std::string> out;
  ASSERT_TRUE(evaluator
                  .Evaluate(db_, opts,
                            [&](const Subst& subst,
                                const std::vector<MatchedFact>& matched)
                                -> Status {
                              out.insert(evaluator.BuildHead(subst)->ToString());
                              // Pinned fact id is reported in the support.
                              EXPECT_EQ(matched[0].id, (TupleId{7, 1, 0}));
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(out, (std::set<std::string>{"t(1, 8)"}));
}

TEST_F(RuleEvalTest, PinnedThroughArithmetic) {
  // Pinning h1(Y, D+1) to h1(5, 3) must solve D = 2.
  Add("g(2, 5)");
  Rule rule = ParseRule("out(Y, D) :- g(D, Y), NOT h1(Y, D + 1).").value();
  RuleBodyEvaluator evaluator(&rule, &registry_);
  std::vector<std::pair<Fact, TupleId>> pin = {
      {Fact(Intern("h1"), {Term::Int(5), Term::Int(3)}), TupleId{}}};
  RuleEvalOptions opts;
  opts.pin_index = 1;  // the negated literal
  opts.pin_facts = &pin;
  std::set<std::string> out;
  ASSERT_TRUE(evaluator
                  .Evaluate(db_, opts,
                            [&](const Subst& subst,
                                const std::vector<MatchedFact>&) -> Status {
                              out.insert(evaluator.BuildHead(subst)->ToString());
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(out, (std::set<std::string>{"out(5, 2)"}));
}

TEST_F(RuleEvalTest, MaxResultsGuard) {
  for (int i = 0; i < 50; ++i) Add("n(" + std::to_string(i) + ")");
  Rule rule = ParseRule("p(X, Y) :- n(X), n(Y).").value();
  RuleBodyEvaluator evaluator(&rule, &registry_);
  RuleEvalOptions opts;
  opts.max_results = 100;
  RuleEvalStats stats;
  Status st = evaluator.Evaluate(
      db_, opts,
      [](const Subst&, const std::vector<MatchedFact>&) {
        return Status::OK();
      },
      &stats);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(RuleEvalTest, StatsCountProbes) {
  Add("r(1, 2)");
  Add("s(2, 3)");
  Rule rule = ParseRule("t(X, Z) :- r(X, Y), s(Y, Z).").value();
  RuleBodyEvaluator evaluator(&rule, &registry_);
  RuleEvalStats stats;
  ASSERT_TRUE(evaluator
                  .Evaluate(db_, RuleEvalOptions{},
                            [](const Subst&, const std::vector<MatchedFact>&) {
                              return Status::OK();
                            },
                            &stats)
                  .ok());
  EXPECT_GT(stats.probes, 0u);
  EXPECT_EQ(stats.emitted, 1u);
}

TEST(SolveMatchTest, ArithmeticInversions) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  struct Case {
    const char* pattern;
    int64_t ground;
    const char* var;
    int64_t expect;
  };
  for (const Case& c : std::vector<Case>{{"D + 1", 5, "D", 4},
                                         {"1 + D", 5, "D", 4},
                                         {"D - 2", 5, "D", 7},
                                         {"9 - D", 5, "D", 4}}) {
    Subst subst;
    Term pattern = ParseTerm(c.pattern).value();
    ASSERT_TRUE(SolveMatchTerm(pattern, Term::Int(c.ground), &subst, registry))
        << c.pattern;
    EXPECT_EQ(*subst.Lookup(Intern(c.var)), Term::Int(c.expect)) << c.pattern;
  }
}

TEST(SolveMatchTest, StructuralWithEvaluation) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  Subst subst;
  subst.Bind(Intern("A"), Term::Int(2));
  // loc(A + 1, Y) against loc(3, 7): A already bound evaluates to 3.
  Term pattern = ParseTerm("loc(A + 1, Y)").value();
  Term ground = ParseTerm("loc(3, 7)").value();
  ASSERT_TRUE(SolveMatchTerm(pattern, ground, &subst, registry));
  EXPECT_EQ(*subst.Lookup(Intern("Y")), Term::Int(7));
}

TEST(SolveMatchTest, MismatchFails) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  Subst subst;
  EXPECT_FALSE(SolveMatchTerm(ParseTerm("D * 2").value(), Term::Int(5),
                              &subst, registry));
  Subst subst2;
  EXPECT_FALSE(SolveMatchTerm(ParseTerm("f(X)").value(),
                              ParseTerm("g(1)").value(), &subst2, registry));
}

// The join probe's pattern q(K, 2, M, M, N + 1) with K = 1 and N = 4 bound:
// a bound variable, a constant, a repeated unbound variable and arithmetic
// over a bound variable.
std::vector<Term> ProbePatterns() {
  std::vector<Term> out;
  for (const char* text : {"K", "2", "M", "M", "N + 1"}) {
    out.push_back(ParseTerm(text).value());
  }
  return out;
}

Subst ProbeBindings() {
  Subst subst;
  subst.Bind(Intern("K"), Term::Int(1));
  subst.Bind(Intern("N"), Term::Int(4));
  return subst;
}

std::vector<Term> Row(std::vector<int64_t> values) {
  std::vector<Term> out;
  for (int64_t v : values) out.push_back(Term::Int(v));
  return out;
}

TEST(GroundColumnFilterTest, RejectsEachGroundColumnAndDefersTheRest) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  GroundColumnFilter filter(ProbePatterns(), ProbeBindings(), registry);
  EXPECT_TRUE(filter.Admits(Row({1, 2, 7, 7, 5})));   // a match
  EXPECT_FALSE(filter.Admits(Row({0, 2, 7, 7, 5})));  // bound variable
  EXPECT_FALSE(filter.Admits(Row({1, 3, 7, 7, 5})));  // constant
  EXPECT_FALSE(filter.Admits(Row({1, 2, 7, 7, 4})));  // N + 1, evaluated
  EXPECT_FALSE(filter.Admits(Row({1, 2, 7, 7})));     // arity
  // The repeated variable is unbound, so the matcher decides the row.
  EXPECT_TRUE(filter.Admits(Row({1, 2, 7, 8, 5})));
  Subst subst = ProbeBindings();
  EXPECT_FALSE(
      SolveMatchTerms(ProbePatterns(), Row({1, 2, 7, 8, 5}), &subst, registry));
}

TEST(GroundColumnFilterTest, NeverRejectsARowTheMatcherAccepts) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  std::vector<Term> patterns = ProbePatterns();
  // A structured column, and a ground call that fails to evaluate: both
  // keep the applied term, as SolveMatchTerm does.
  patterns.push_back(ParseTerm("f(K, Y)").value());
  patterns.push_back(ParseTerm("K / 0").value());
  Subst bindings = ProbeBindings();
  GroundColumnFilter filter(patterns, bindings, registry);
  int admitted = 0;
  int matched = 0;
  // Each bit of `pick` chooses one of two values for one column.
  for (int pick = 0; pick < 64; ++pick) {
    auto choose = [&](int bit, int64_t a, int64_t b) {
      return (pick >> bit) & 1 ? b : a;
    };
    std::vector<Term> row = Row({choose(0, 1, 0), choose(1, 2, 3), 7,
                                 choose(2, 7, 8), choose(3, 5, 4)});
    row.push_back(Term::Function(
        Intern("f"), {Term::Int(choose(4, 1, 0)), Term::Int(3)}));
    row.push_back(Term::Function(
        Intern("/"), {Term::Int(choose(5, 1, 2)), Term::Int(0)}));
    Subst subst = bindings;
    bool solves = SolveMatchTerms(patterns, row, &subst, registry);
    bool admits = filter.Admits(row);
    EXPECT_TRUE(admits || !solves) << pick;
    admitted += admits ? 1 : 0;
    matched += solves ? 1 : 0;
  }
  EXPECT_EQ(matched, 1);
  // The ground columns agree on 4 rows: the match, and the rows that differ
  // only in the repeated M or in f's first argument (f(K, Y) is not
  // ground, so the matcher decides it).
  EXPECT_EQ(admitted, 4);
}

TEST(GroundArgsTest, EvaluatesEveryArgumentOrGivesUp) {
  BuiltinRegistry registry = BuiltinRegistry::Default();
  std::vector<Term> args;
  for (const char* text : {"K", "N + 1", "f(K, 2)"}) {
    args.push_back(ParseTerm(text).value());
  }
  Subst bindings = ProbeBindings();
  std::optional<std::vector<Term>> all = GroundArgs(args, bindings, registry);
  ASSERT_TRUE(all.has_value());
  std::vector<Term> want = Row({1, 5});
  want.push_back(Term::Function(Intern("f"), {Term::Int(1), Term::Int(2)}));
  EXPECT_EQ(*all, want);
  // The skipped argument is left out.
  EXPECT_EQ(GroundArgs(args, bindings, registry, 1),
            (std::vector<Term>{want[0], want[2]}));
  // An unbound variable, even inside a function, makes the list non-ground;
  // skipping it makes it ground again.
  args.push_back(ParseTerm("g(M)").value());
  EXPECT_FALSE(GroundArgs(args, bindings, registry).has_value());
  EXPECT_TRUE(GroundArgs(args, bindings, registry, 3).has_value());
  // So does a call that fails to evaluate.
  args[3] = ParseTerm("K / 0").value();
  EXPECT_FALSE(GroundArgs(args, bindings, registry).has_value());
}

}  // namespace
}  // namespace deduce
