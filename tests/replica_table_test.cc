// The node runtime's flat replica table: rows sorted by TupleId, found by
// binary search, inserted in order and erased one at a time.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "deduce/common/rng.h"
#include "deduce/engine/runtime.h"

namespace deduce {
namespace {

Fact R(int64_t k) { return Fact(Intern("r"), {Term::Int(k)}); }

std::vector<std::string> Ids(const ReplicaTable& table) {
  std::vector<std::string> out;
  for (const auto& [id, rep] : table) out.push_back(id.ToString());
  return out;
}

TEST(ReplicaTableTest, OutOfOrderInsertsIterateInTupleIdOrder) {
  std::vector<TupleId> ids = {{3, 5, 0}, {1, 9, 2}, {1, 9, 1}, {2, 0, 0},
                              {1, 2, 7}, {0, 100, 0}};
  ReplicaTable table;
  for (size_t i = 0; i < ids.size(); ++i) {
    table.FindOrInsert(ids[i]).gen_ts = static_cast<Timestamp>(i);
  }
  std::vector<TupleId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> want;
  for (const TupleId& id : sorted) want.push_back(id.ToString());
  EXPECT_EQ(Ids(table), want);
  // Each row kept its own contents while later inserts moved it.
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(table.Find(ids[i]), nullptr);
    EXPECT_EQ(table.Find(ids[i])->gen_ts, static_cast<Timestamp>(i));
  }
}

TEST(ReplicaTableTest, FindAndEraseIncludingAMissingId) {
  ReplicaTable table;
  TupleId a{1, 10, 0};
  TupleId b{1, 20, 0};
  TupleId missing{1, 15, 0};
  table.FindOrInsert(a).fact = R(1);
  table.FindOrInsert(b).fact = R(2);
  EXPECT_EQ(table.Find(missing), nullptr);
  const ReplicaTable& view = table;
  ASSERT_NE(view.Find(b), nullptr);
  EXPECT_EQ(view.Find(b)->fact, R(2));

  // FindOrInsert on a present id returns its row; nothing is added.
  table.FindOrInsert(a).have_insert = true;
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.Find(a)->have_insert);

  EXPECT_FALSE(table.Erase(missing));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.Erase(a));
  EXPECT_EQ(table.Find(a), nullptr);
  EXPECT_FALSE(table.Erase(a));
  EXPECT_EQ(Ids(table), std::vector<std::string>{b.ToString()});
  EXPECT_TRUE(table.Erase(b));
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.Erase(b));
}

TEST(ReplicaTableTest, OneFactUnderTwoTupleIdsIsTwoRows) {
  ReplicaTable table;
  TupleId first{4, 100, 0};
  TupleId second{7, 100, 0};
  table.FindOrInsert(second).fact = R(5);
  table.FindOrInsert(first).fact = R(5);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(Ids(table),
            (std::vector<std::string>{first.ToString(), second.ToString()}));
  EXPECT_TRUE(table.Erase(first));
  ASSERT_NE(table.Find(second), nullptr);
  EXPECT_EQ(table.Find(second)->fact, R(5));
}

TEST(ReplicaTableTest, MatchesAnOrderedMapUnderRandomInsertsAndErases) {
  Rng rng(7);
  ReplicaTable table;
  std::map<TupleId, Timestamp> model;
  for (int step = 0; step < 2000; ++step) {
    TupleId id{static_cast<NodeId>(rng.Uniform(0, 3)), rng.Uniform(0, 40),
               static_cast<uint32_t>(rng.Uniform(0, 2))};
    if (rng.Bernoulli(0.4)) {
      EXPECT_EQ(table.Erase(id), model.erase(id) == 1);
    } else {
      table.FindOrInsert(id).gen_ts = step;
      model[id] = step;
    }
  }
  ASSERT_EQ(table.size(), model.size());
  auto it = model.begin();
  for (const auto& [id, rep] : table) {
    EXPECT_EQ(id, it->first);
    EXPECT_EQ(rep.gen_ts, it->second);
    ++it;
  }
}

}  // namespace
}  // namespace deduce
