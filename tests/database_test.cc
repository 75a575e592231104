#include "deduce/eval/database.h"

#include <gtest/gtest.h>

#include "deduce/datalog/parser.h"

namespace deduce {
namespace {

Fact F(const std::string& pred, std::vector<Term> args) {
  return Fact(Intern(pred), std::move(args));
}

TEST(DatabaseTest, InsertDeduplicates) {
  Database db;
  EXPECT_TRUE(db.Insert(F("p", {Term::Int(1)})));
  EXPECT_FALSE(db.Insert(F("p", {Term::Int(1)})));
  EXPECT_TRUE(db.Insert(F("p", {Term::Int(2)})));
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.RelationSize(Intern("p")), 2u);
}

TEST(DatabaseTest, ContainsAndErase) {
  Database db;
  Fact f = F("p", {Term::Int(1)});
  db.Insert(f);
  EXPECT_TRUE(db.Contains(f));
  EXPECT_TRUE(db.Erase(f));
  EXPECT_FALSE(db.Contains(f));
  EXPECT_FALSE(db.Erase(f));
  EXPECT_EQ(db.size(), 0u);
}

TEST(DatabaseTest, ScanPreservesInsertionOrder) {
  Database db;
  for (int i = 0; i < 5; ++i) db.Insert(F("p", {Term::Int(i)}));
  std::vector<int64_t> seen;
  db.Scan(Intern("p"), [&](const Fact& f, const TupleId&) {
    seen.push_back(f.args()[0].value().as_int());
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(DatabaseTest, ScanUnknownPredicateIsEmpty) {
  Database db;
  int count = 0;
  db.Scan(Intern("nothing_here"), [&](const Fact&, const TupleId&) {
    ++count;
  });
  EXPECT_EQ(count, 0);
}

TEST(DatabaseTest, SameFacts) {
  Database a, b;
  a.Insert(F("p", {Term::Int(1)}));
  a.Insert(F("q", {Term::Int(2)}));
  b.Insert(F("q", {Term::Int(2)}));
  b.Insert(F("p", {Term::Int(1)}));
  EXPECT_TRUE(a.SameFacts(b));
  b.Insert(F("p", {Term::Int(3)}));
  EXPECT_FALSE(a.SameFacts(b));
}

TEST(DatabaseTest, ToStringSorted) {
  Database db;
  db.Insert(F("b", {Term::Int(2)}));
  db.Insert(F("a", {Term::Int(1)}));
  EXPECT_EQ(db.ToString(), "a(1)\nb(2)\n");
}

TEST(DatabaseTest, PredicatesSortedByName) {
  Database db;
  db.Insert(F("zeta", {Term::Int(1)}));
  db.Insert(F("alpha", {Term::Int(1)}));
  std::vector<SymbolId> preds = db.Predicates();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(SymbolName(preds[0]), "alpha");
  EXPECT_EQ(SymbolName(preds[1]), "zeta");
}

TEST(FactTest, EqualityAndHash) {
  Fact a = F("p", {Term::Int(1), Term::Sym("x")});
  Fact b = F("p", {Term::Int(1), Term::Sym("x")});
  Fact c = F("p", {Term::Int(1), Term::Sym("y")});
  Fact d = F("q", {Term::Int(1), Term::Sym("x")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(FactTest, ToStringForm) {
  EXPECT_EQ(F("p", {}).ToString(), "p()");
  EXPECT_EQ(F("veh", {Term::Sym("enemy"), Term::Int(3)}).ToString(),
            "veh(enemy, 3)");
}

TEST(TupleIdTest, OrderingAndEquality) {
  TupleId a{1, 10, 0};
  TupleId b{1, 10, 1};
  TupleId c{2, 5, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (TupleId{1, 10, 0}));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.ToString(), "(1@10#0)");
}

TEST(StreamEventTest, ToStringShowsOp) {
  StreamEvent e;
  e.op = StreamOp::kDelete;
  e.fact = F("p", {Term::Int(1)});
  e.time = 42;
  EXPECT_NE(e.ToString().find("-p(1)"), std::string::npos);
}

}  // namespace
}  // namespace deduce

namespace deduce {
namespace {

TEST(DatabaseIndexTest, ScanBoundFindsExactlyMatches) {
  Database db;
  for (int i = 0; i < 20; ++i) {
    db.Insert(Fact(Intern("e"), {Term::Int(i % 4), Term::Int(i)}));
  }
  std::vector<int64_t> seen;
  db.ScanBound(Intern("e"), 0, Term::Int(2), [&](const Fact& f, const TupleId&) {
    EXPECT_EQ(f.args()[0], Term::Int(2));
    seen.push_back(f.args()[1].value().as_int());
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{2, 6, 10, 14, 18}));
}

TEST(DatabaseIndexTest, IndexMaintainedAcrossInserts) {
  Database db;
  db.Insert(Fact(Intern("e"), {Term::Int(1), Term::Int(10)}));
  // Build the index...
  int count = 0;
  db.ScanBound(Intern("e"), 0, Term::Int(1),
               [&](const Fact&, const TupleId&) { ++count; });
  EXPECT_EQ(count, 1);
  // ...then insert more: the index must pick them up.
  db.Insert(Fact(Intern("e"), {Term::Int(1), Term::Int(11)}));
  db.Insert(Fact(Intern("e"), {Term::Int(2), Term::Int(12)}));
  count = 0;
  db.ScanBound(Intern("e"), 0, Term::Int(1),
               [&](const Fact&, const TupleId&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(DatabaseIndexTest, IndexSurvivesErase) {
  Database db;
  for (int i = 0; i < 6; ++i) {
    db.Insert(Fact(Intern("e"), {Term::Int(i % 2), Term::Int(i)}));
  }
  int count = 0;
  db.ScanBound(Intern("e"), 1, Term::Int(3),
               [&](const Fact&, const TupleId&) { ++count; });
  EXPECT_EQ(count, 1);
  db.Erase(Fact(Intern("e"), {Term::Int(1), Term::Int(3)}));
  count = 0;
  db.ScanBound(Intern("e"), 1, Term::Int(3),
               [&](const Fact&, const TupleId&) { ++count; });
  EXPECT_EQ(count, 0);
  // Other entries unaffected.
  count = 0;
  db.ScanBound(Intern("e"), 0, Term::Int(0),
               [&](const Fact&, const TupleId&) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(DatabaseIndexTest, ScanBoundSurvivesReentrantInsertRehash) {
  // Regression: ScanBound used to hold an iterator into the per-position
  // bucket map while invoking the callback. A re-entrant Insert (exactly
  // what semi-naive evaluation of a recursive rule does) that creates new
  // hash buckets rehashes that map and invalidates the iterator — UB on the
  // next loop iteration. Each callback below inserts a burst of facts with
  // fresh position-0 values, forcing growth past the map's load factor.
  Database db;
  for (int i = 0; i < 8; ++i) {
    db.Insert(Fact(Intern("edge"), {Term::Int(0), Term::Int(i)}));
  }
  std::vector<int64_t> seen;
  int fresh = 1000;
  db.ScanBound(Intern("edge"), 0, Term::Int(0),
               [&](const Fact& f, const TupleId&) {
                 seen.push_back(f.args()[1].value().as_int());
                 for (int k = 0; k < 64; ++k) {
                   db.Insert(Fact(Intern("edge"),
                                  {Term::Int(fresh++), Term::Int(0)}));
                 }
               });
  // Every fact visible at scan start is visited exactly once; the facts
  // inserted mid-scan (none of which match the bound value) are not.
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(db.RelationSize(Intern("edge")), 8u + 8u * 64u);
}

TEST(DatabaseIndexTest, ScanBoundReentrantMatchingInsertsNotVisited) {
  // Same re-entrancy discipline as Scan: facts inserted during the scan —
  // even ones matching the bound value, which land in the very bucket being
  // walked — are not visited by the in-flight scan but are indexed for the
  // next one.
  Database db;
  for (int i = 0; i < 4; ++i) {
    db.Insert(Fact(Intern("r"), {Term::Int(7), Term::Int(i)}));
  }
  int calls = 0;
  db.ScanBound(Intern("r"), 0, Term::Int(7),
               [&](const Fact&, const TupleId&) {
                 int base = 1000 + 100 * calls;
                 ++calls;
                 for (int k = 0; k < 30; ++k) {
                   db.Insert(Fact(Intern("r"),
                                  {Term::Int(7), Term::Int(base + k)}));
                   db.Insert(Fact(Intern("r"),
                                  {Term::Int(base + k), Term::Int(0)}));
                 }
               });
  EXPECT_EQ(calls, 4);
  int rescan = 0;
  db.ScanBound(Intern("r"), 0, Term::Int(7),
               [&](const Fact&, const TupleId&) { ++rescan; });
  EXPECT_EQ(rescan, 4 + 4 * 30);
}

TEST(DatabaseIndexTest, ScanBoundSurvivesReentrantErase) {
  // An Erase from the callback rebuilds the indexes lazily (they are
  // cleared); the in-flight scan must stop touching the dropped buckets
  // rather than dereference freed memory.
  Database db;
  for (int i = 0; i < 6; ++i) {
    db.Insert(Fact(Intern("p"), {Term::Int(1), Term::Int(i)}));
  }
  int calls = 0;
  db.ScanBound(Intern("p"), 0, Term::Int(1),
               [&](const Fact&, const TupleId&) {
                 ++calls;
                 db.Erase(Fact(Intern("p"), {Term::Int(1), Term::Int(5)}));
               });
  // The scan stops safely after the erase invalidates the index; at least
  // the first fact was delivered and nothing is visited twice.
  EXPECT_GE(calls, 1);
  EXPECT_LE(calls, 6);
  EXPECT_EQ(db.RelationSize(Intern("p")), 5u);
}

TEST(DatabaseIndexTest, StructuredTermsIndexable) {
  Database db;
  db.Insert(Fact(Intern("p"), {Term::Function("loc", {Term::Int(1), Term::Int(2)}),
                               Term::Int(0)}));
  db.Insert(Fact(Intern("p"), {Term::Function("loc", {Term::Int(3), Term::Int(4)}),
                               Term::Int(1)}));
  int count = 0;
  db.ScanBound(Intern("p"), 0,
               Term::Function("loc", {Term::Int(3), Term::Int(4)}),
               [&](const Fact&, const TupleId&) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(DatabaseIndexTest, DefaultScanBoundFallbackAgrees) {
  // A reader without an index override filters a full scan; results must
  // coincide with the indexed implementation.
  class Wrapper : public RelationReader {
   public:
    explicit Wrapper(const Database* db) : db_(db) {}
    void Scan(SymbolId pred,
              const std::function<void(const Fact&, const TupleId&)>& fn)
        const override {
      db_->Scan(pred, fn);
    }
    bool Contains(const Fact& f) const override { return db_->Contains(f); }

   private:
    const Database* db_;
  };
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.Insert(Fact(Intern("q"), {Term::Int(i % 5), Term::Int(i)}));
  }
  Wrapper w(&db);
  std::vector<std::string> indexed, fallback;
  db.ScanBound(Intern("q"), 0, Term::Int(3),
               [&](const Fact& f, const TupleId&) {
                 indexed.push_back(f.ToString());
               });
  w.ScanBound(Intern("q"), 0, Term::Int(3),
              [&](const Fact& f, const TupleId&) {
                fallback.push_back(f.ToString());
              });
  EXPECT_EQ(indexed, fallback);
  EXPECT_EQ(indexed.size(), 6u);
}

}  // namespace
}  // namespace deduce
