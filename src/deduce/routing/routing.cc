#include "deduce/routing/routing.h"

#include <cstdlib>
#include <tuple>

#include "deduce/common/logging.h"

namespace deduce {

namespace {

/// Among `from`'s neighbours one hop closer to `dest` by `hops` (hop count
/// to dest, -1 if unreachable), the one geographically closest to dest;
/// kNoNode if `from` is at dest or cut off. Neighbours are scanned in
/// ascending id order and only a strictly closer one replaces the pick, so
/// the lowest id wins a tie. Making hop progress every step guarantees
/// delivery (alternating pure greedy with a fallback can livelock around a
/// void); this is the GPSR stand-in documented in DESIGN.md §2.
template <typename Hops>
NodeId ClosestProgressNeighbor(const Topology& topology, NodeId from,
                               NodeId dest, Hops hops) {
  int here = hops(from);
  if (here <= 0) return kNoNode;
  const Location& target = topology.location(dest);
  NodeId best = kNoNode;
  double best_d = 0;
  for (NodeId v : topology.neighbors(from)) {
    if (hops(v) != here - 1) continue;
    double d = topology.location(v).DistanceTo(target);
    if (best == kNoNode || d < best_d - 1e-12) {
      best_d = d;
      best = v;
    }
  }
  return best;
}

/// Hop counts toward `dest` on a Grid topology: on the unit-range
/// 4-neighbourhood grid, BFS distance is the Manhattan distance of the
/// integer grid coordinates.
class GridHops {
 public:
  GridHops(const Topology& topology, NodeId dest) : topology_(topology) {
    std::tie(dest_p_, dest_q_) = topology.GridCoord(dest);
  }
  int operator()(NodeId v) const {
    auto [p, q] = topology_.GridCoord(v);
    return std::abs(p - dest_p_) + std::abs(q - dest_q_);
  }

 private:
  const Topology& topology_;
  int dest_p_ = 0;
  int dest_q_ = 0;
};

}  // namespace

RoutingTable::RoutingTable(const Topology* topology) : topology_(topology) {}

const BfsTree& RoutingTable::InfoFor(NodeId dest) const {
  auto it = cache_.find(dest);
  if (it != cache_.end()) return *it->second;
  auto info = std::make_unique<BfsTree>(topology_->Bfs(dest));
  const BfsTree& ref = *info;
  cache_.emplace(dest, std::move(info));
  return ref;
}

NodeId RoutingTable::NextHop(NodeId from, NodeId dest) const {
  if (from == dest) return kNoNode;
  return InfoFor(dest).parent[static_cast<size_t>(from)];
}

NodeId RoutingTable::GeoNextHop(NodeId from, NodeId dest) const {
  if (from == dest) return kNoNode;
  if (topology_->grid_side().has_value()) {
    return ClosestProgressNeighbor(*topology_, from, dest,
                                   GridHops(*topology_, dest));
  }
  const std::vector<int>& dist = InfoFor(dest).dist;
  return ClosestProgressNeighbor(
      *topology_, from, dest,
      [&](NodeId v) { return dist[static_cast<size_t>(v)]; });
}

NodeId RoutingTable::NextHopAvoiding(NodeId from, NodeId dest,
                                     const std::vector<char>& avoid,
                                     uint64_t cache_version) const {
  if (from == dest) return kNoNode;
  // BFS outward from dest over non-avoided nodes only. `dest` is always
  // expanded (a message may legitimately target a node the sender merely
  // suspects is down). An avoided `from` is never reached, so it gets
  // kNoNode; an avoided neighbour is never reached either, so the pick
  // below skips it.
  const std::vector<int>* dist = nullptr;
  std::vector<int> fresh;
  if (cache_version > 0) {
    AvoidInfo& slot = avoid_cache_[dest];
    if (slot.version != cache_version) {
      slot.version = cache_version;
      slot.dist = topology_->Bfs(dest, &avoid).dist;
    }
    dist = &slot.dist;
  } else {
    fresh = topology_->Bfs(dest, &avoid).dist;
    dist = &fresh;
  }
  return ClosestProgressNeighbor(
      *topology_, from, dest,
      [&](NodeId v) { return (*dist)[static_cast<size_t>(v)]; });
}

int RoutingTable::HopDistance(NodeId from, NodeId dest) const {
  if (from == dest) return 0;
  if (topology_->grid_side().has_value()) {
    return GridHops(*topology_, dest)(from);
  }
  return InfoFor(dest).dist[static_cast<size_t>(from)];
}

std::vector<NodeId> RoutingTable::Route(NodeId from, NodeId dest) const {
  std::vector<NodeId> out;
  if (from == dest) return out;
  NodeId cur = from;
  int guard = topology_->node_count() + 1;
  while (cur != dest && guard-- > 0) {
    NodeId next = NextHop(cur, dest);
    if (next == kNoNode) return {};
    out.push_back(next);
    cur = next;
  }
  DEDUCE_CHECK(cur == dest) << "routing loop from " << from << " to " << dest;
  return out;
}

SinkTree SinkTree::Build(const Topology& topology, NodeId root) {
  BfsTree bfs = topology.Bfs(root);
  SinkTree tree;
  tree.root = root;
  tree.parent = std::move(bfs.parent);
  tree.depth = std::move(bfs.dist);
  return tree;
}

std::vector<std::vector<NodeId>> SinkTree::Children() const {
  std::vector<std::vector<NodeId>> children(parent.size());
  for (size_t v = 0; v < parent.size(); ++v) {
    NodeId p = parent[v];
    if (p == kNoNode || static_cast<size_t>(p) == v) continue;
    children[static_cast<size_t>(p)].push_back(static_cast<NodeId>(v));
  }
  return children;
}

}  // namespace deduce
