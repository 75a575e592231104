#ifndef DEDUCE_ROUTING_ROUTING_H_
#define DEDUCE_ROUTING_ROUTING_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "deduce/net/topology.h"

namespace deduce {

/// Hop-by-hop routing over a topology.
///
/// Primary strategy is greedy geographic forwarding (each hop moves strictly
/// closer to the destination's location), which is what the paper's setting
/// assumes for grid networks — on a grid it degenerates to dimension-order
/// routing. When greedy forwarding hits a local minimum (possible on random
/// topologies), it falls back to a shortest-path next hop — the stand-in for
/// a full GPSR perimeter mode (see DESIGN.md §2).
///
/// On a Grid topology, hop distances and geographic next hops are computed
/// in closed form from the grid coordinates; no table is built. Elsewhere
/// (and for NextHop/Route everywhere) a BFS table toward each destination
/// is built on first use and cached.
///
/// All computations are deterministic (ties broken by lower node id).
class RoutingTable {
 public:
  /// `topology` must outlive the table.
  explicit RoutingTable(const Topology* topology);

  /// Next hop from `from` toward `dest`; kNoNode if unreachable or already
  /// there.
  NodeId NextHop(NodeId from, NodeId dest) const;

  /// Greedy-geographic next hop with shortest-path fallback.
  NodeId GeoNextHop(NodeId from, NodeId dest) const;

  /// Failure-aware next hop: like GeoNextHop, but routes only over nodes
  /// not marked in `avoid`. `dest` is never treated as avoided (a sender
  /// may legitimately target a node it merely suspects); callers whose
  /// `from` is itself marked should expect kNoNode and fall back to
  /// GeoNextHop. Returns kNoNode when every live path is cut. When
  /// `cache_version` > 0, the BFS for `dest` is cached and reused as long
  /// as callers pass the same version (bump it whenever `avoid` changes);
  /// version 0 always recomputes.
  NodeId NextHopAvoiding(NodeId from, NodeId dest,
                         const std::vector<char>& avoid,
                         uint64_t cache_version = 0) const;

  /// Hop distance (Manhattan distance on a grid, BFS elsewhere); -1 if
  /// unreachable.
  int HopDistance(NodeId from, NodeId dest) const;

  /// The full hop sequence from -> ... -> dest (excluding `from`); empty if
  /// unreachable or from == dest.
  std::vector<NodeId> Route(NodeId from, NodeId dest) const;

 private:
  /// BFS tree rooted at `dest`: parent[v] is the next hop from v toward
  /// dest, dist[v] the hops left.
  const BfsTree& InfoFor(NodeId dest) const;

  const Topology* topology_;
  mutable std::unordered_map<NodeId, std::unique_ptr<BfsTree>> cache_;
  /// Avoid-aware BFS distances, keyed by dest and tagged with the liveness
  /// version they were computed under.
  struct AvoidInfo {
    uint64_t version = 0;
    std::vector<int> dist;
  };
  mutable std::unordered_map<NodeId, AvoidInfo> avoid_cache_;
};

/// BFS spanning tree rooted at a sink: parent pointers and depths. Used by
/// the centralized (external-server) baseline, converge-cast aggregation
/// (TAG-style), and the procedural SPT baseline's expected output.
struct SinkTree {
  NodeId root = 0;
  std::vector<NodeId> parent;  ///< parent[root] == root.
  std::vector<int> depth;      ///< depth[root] == 0; -1 if unreachable.

  static SinkTree Build(const Topology& topology, NodeId root);

  /// Children lists (derived from parents).
  std::vector<std::vector<NodeId>> Children() const;
};

}  // namespace deduce

#endif  // DEDUCE_ROUTING_ROUTING_H_
