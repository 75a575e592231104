#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "deduce/routing/geo_hash.h"
#include "deduce/routing/routing.h"

namespace deduce {
namespace {

TEST(RoutingTest, GridNextHopMakesProgress) {
  Topology t = Topology::Grid(5);
  RoutingTable rt(&t);
  NodeId from = t.GridNode(0, 0);
  NodeId dest = t.GridNode(4, 4);
  EXPECT_EQ(rt.HopDistance(from, dest), 8);
  NodeId cur = from;
  int hops = 0;
  while (cur != dest) {
    NodeId next = rt.NextHop(cur, dest);
    ASSERT_NE(next, kNoNode);
    EXPECT_EQ(rt.HopDistance(next, dest), rt.HopDistance(cur, dest) - 1);
    cur = next;
    ++hops;
  }
  EXPECT_EQ(hops, 8);
}

TEST(RoutingTest, RouteReturnsFullPath) {
  Topology t = Topology::Line(5);
  RoutingTable rt(&t);
  std::vector<NodeId> route = rt.Route(0, 4);
  EXPECT_EQ(route, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_TRUE(rt.Route(2, 2).empty());
}

TEST(RoutingTest, GeoNextHopGreedyOnGrid) {
  Topology t = Topology::Grid(5);
  RoutingTable rt(&t);
  NodeId cur = t.GridNode(0, 0);
  NodeId dest = t.GridNode(3, 2);
  int guard = 30;
  while (cur != dest && guard-- > 0) {
    NodeId next = rt.GeoNextHop(cur, dest);
    ASSERT_NE(next, kNoNode);
    // Greedy: strictly closer each hop.
    EXPECT_LT(t.location(next).DistanceTo(t.location(dest)),
              t.location(cur).DistanceTo(t.location(dest)));
    cur = next;
  }
  EXPECT_EQ(cur, dest);
}

TEST(RoutingTest, GeoRoutingDeliversOnRandomTopologies) {
  Rng rng(4242);
  for (int trial = 0; trial < 5; ++trial) {
    Topology t = Topology::RandomGeometric(40, 10, 10, 2.5, &rng);
    if (!t.IsConnected()) continue;
    RoutingTable rt(&t);
    for (auto [a, b] : std::vector<std::pair<NodeId, NodeId>>{
             {0, 39}, {5, 20}, {39, 1}}) {
      NodeId cur = a;
      int guard = 200;
      while (cur != b && guard-- > 0) {
        NodeId next = rt.GeoNextHop(cur, b);
        ASSERT_NE(next, kNoNode);
        cur = next;
      }
      EXPECT_EQ(cur, b) << "trial " << trial;
    }
  }
}

TEST(RoutingTest, SinkTreeDepthsMatchBfs) {
  Topology t = Topology::Grid(4);
  SinkTree tree = SinkTree::Build(t, 0);
  RoutingTable rt(&t);
  for (int v = 0; v < 16; ++v) {
    EXPECT_EQ(tree.depth[static_cast<size_t>(v)], rt.HopDistance(v, 0));
    if (v != 0) {
      // Parent is one closer to the root and a neighbor.
      NodeId p = tree.parent[static_cast<size_t>(v)];
      EXPECT_TRUE(t.AreNeighbors(v, p));
      EXPECT_EQ(tree.depth[static_cast<size_t>(p)],
                tree.depth[static_cast<size_t>(v)] - 1);
    }
  }
  // Children lists are consistent.
  auto children = tree.Children();
  size_t total = 0;
  for (const auto& c : children) total += c.size();
  EXPECT_EQ(total, 15u);
}

// --- closed-form grid routing vs the BFS reference -------------------------

// Checks every ordered pair of `t`: HopDistance against the BFS distance,
// GeoNextHop against the avoid-aware next hop over an empty avoid set (the
// BFS path), and DiameterHops against the largest BFS eccentricity.
void ExpectRoutingMatchesBfs(const Topology& t) {
  RoutingTable rt(&t);
  const int n = t.node_count();
  const std::vector<char> no_avoid(static_cast<size_t>(n), 0);
  int diameter = 0;
  for (NodeId dest = 0; dest < n; ++dest) {
    BfsTree bfs = t.Bfs(dest);
    ASSERT_EQ(bfs.reached, n);
    diameter = std::max(diameter, bfs.eccentricity);
    for (NodeId from = 0; from < n; ++from) {
      ASSERT_EQ(rt.HopDistance(from, dest),
                bfs.dist[static_cast<size_t>(from)])
          << from << " -> " << dest;
      ASSERT_EQ(rt.GeoNextHop(from, dest),
                rt.NextHopAvoiding(from, dest, no_avoid, 0))
          << from << " -> " << dest;
    }
  }
  EXPECT_EQ(t.DiameterHops(), diameter);
}

TEST(RoutingTest, GridClosedFormsMatchBfs) {
  for (int m : {1, 2, 3, 5, 8, 13}) {
    SCOPED_TRACE(testing::Message() << "grid " << m);
    ExpectRoutingMatchesBfs(Topology::Grid(m));
  }
}

TEST(RoutingTest, RandomGeometricMatchesBfs) {
  Rng rng(4242);
  Topology t = Topology::RandomGeometric(40, 10, 10, 2.5, &rng);
  ASSERT_TRUE(t.IsConnected());
  ExpectRoutingMatchesBfs(t);
}

TEST(RoutingTest, GridNextHopTiesGoToLowestId) {
  // From (0,0) toward (2,2) both (1,0) and (0,1) make progress and sit at
  // the same distance from the target: the lower id, (1,0), wins.
  Topology t = Topology::Grid(3);
  RoutingTable rt(&t);
  EXPECT_EQ(rt.GeoNextHop(t.GridNode(0, 0), t.GridNode(2, 2)),
            t.GridNode(1, 0));
  // Off the diagonal the hop closer to the target wins: from (0,0) toward
  // (2,1), (1,0) is sqrt(2) away and (0,1) is 2 away.
  EXPECT_EQ(rt.GeoNextHop(t.GridNode(0, 0), t.GridNode(2, 1)),
            t.GridNode(1, 0));
  EXPECT_EQ(rt.GeoNextHop(t.GridNode(0, 0), t.GridNode(1, 2)),
            t.GridNode(0, 1));
}

TEST(RoutingTest, AvoidingDetoursAroundMarkedNodes) {
  // On a 3x3 grid, avoiding (1,0) forces the hop from (0,0) toward (2,0)
  // up through (0,1).
  Topology t = Topology::Grid(3);
  RoutingTable rt(&t);
  std::vector<char> avoid(9, 0);
  avoid[static_cast<size_t>(t.GridNode(1, 0))] = 1;
  EXPECT_EQ(rt.NextHopAvoiding(t.GridNode(0, 0), t.GridNode(2, 0), avoid),
            t.GridNode(0, 1));
  // A marked destination is still reachable, and a marked sender is cut
  // off (callers fall back to GeoNextHop).
  EXPECT_EQ(rt.NextHopAvoiding(t.GridNode(0, 0), t.GridNode(1, 0), avoid),
            t.GridNode(1, 0));
  EXPECT_EQ(rt.NextHopAvoiding(t.GridNode(1, 0), t.GridNode(2, 0), avoid),
            kNoNode);
  // The cached variant answers the same until the version changes.
  EXPECT_EQ(rt.NextHopAvoiding(t.GridNode(0, 0), t.GridNode(2, 0), avoid, 7),
            t.GridNode(0, 1));
  avoid.assign(9, 0);
  EXPECT_EQ(rt.NextHopAvoiding(t.GridNode(0, 0), t.GridNode(2, 0), avoid, 7),
            t.GridNode(0, 1));
  EXPECT_EQ(rt.NextHopAvoiding(t.GridNode(0, 0), t.GridNode(2, 0), avoid, 8),
            t.GridNode(1, 0));
}

TEST(GeoHashTest, SameFactSameHome) {
  Topology t = Topology::Grid(6);
  GeoHash gh(&t);
  Fact f(Intern("cov"), {Term::Int(3), Term::Int(9)});
  Fact g(Intern("cov"), {Term::Int(3), Term::Int(9)});
  EXPECT_EQ(gh.HomeNode(f), gh.HomeNode(g));
}

TEST(GeoHashTest, SpreadsAcrossNetwork) {
  Topology t = Topology::Grid(6);
  GeoHash gh(&t);
  std::set<NodeId> homes;
  for (int i = 0; i < 200; ++i) {
    homes.insert(gh.HomeNode(Fact(Intern("p"), {Term::Int(i)})));
  }
  // 200 distinct tuples should land on a good fraction of 36 nodes.
  EXPECT_GT(homes.size(), 20u);
}

TEST(GeoHashTest, HomeIsValidNode) {
  Rng rng(1);
  Topology t = Topology::RandomGeometric(25, 8, 8, 2.5, &rng);
  GeoHash gh(&t);
  for (int i = 0; i < 50; ++i) {
    NodeId h = gh.HomeNode(Fact(Intern("q"), {Term::Int(i)}));
    EXPECT_GE(h, 0);
    EXPECT_LT(h, 25);
  }
}

}  // namespace
}  // namespace deduce
