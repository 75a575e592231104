#ifndef DEDUCE_NET_TOPOLOGY_H_
#define DEDUCE_NET_TOPOLOGY_H_

#include <cmath>
#include <optional>
#include <vector>

#include "deduce/common/rng.h"
#include "deduce/datalog/fact.h"  // NodeId

namespace deduce {

/// Position of a node in the plane (grid coordinates are unit-spaced).
struct Location {
  double x = 0;
  double y = 0;

  double DistanceTo(const Location& o) const {
    double dx = x - o.x;
    double dy = y - o.y;
    return std::sqrt(dx * dx + dy * dy);
  }
};

/// Result of a breadth-first search over a Topology (see Topology::Bfs).
struct BfsTree {
  /// parent[v] is the neighbour that first reached v; parent[source] ==
  /// source; kNoNode if v was not reached.
  std::vector<NodeId> parent;
  /// dist[v] is v's hop count from the source; -1 if v was not reached.
  std::vector<int> dist;
  int reached = 0;       ///< Nodes reached, the source included.
  int eccentricity = 0;  ///< Largest dist among the reached nodes.
};

/// Node placement + unit-disk connectivity. The paper's grid model (§III-A):
/// "a node of unit transmission radius at each location (p, q)"; two nodes
/// communicate iff within the radio range.
class Topology {
 public:
  /// m x m grid with unit spacing; radio range 1 (4-neighborhood). Node id
  /// = q * m + p for column p, row q (0-based).
  static Topology Grid(int m);

  /// Horizontal line of n nodes with unit spacing.
  static Topology Line(int n);

  /// n nodes uniform in [0,width] x [0,height], unit-disk with the given
  /// range. Deterministic from *rng.
  static Topology RandomGeometric(int n, double width, double height,
                                  double range, Rng* rng);

  int node_count() const { return static_cast<int>(locations_.size()); }
  const Location& location(NodeId id) const {
    return locations_[static_cast<size_t>(id)];
  }
  const std::vector<NodeId>& neighbors(NodeId id) const {
    return adjacency_[static_cast<size_t>(id)];
  }
  double radio_range() const { return range_; }

  bool AreNeighbors(NodeId a, NodeId b) const;

  /// True if the unit-disk graph is connected.
  bool IsConnected() const;

  /// Breadth-first search from `source`. Nodes are expanded in visit order
  /// and their neighbours in ascending id order; a node's parent is the
  /// first expanded neighbour to reach it, so trees are deterministic.
  /// Nodes marked non-zero in `avoid` (when given; ids past its end count
  /// as unmarked) are never entered, but the source itself is always
  /// expanded.
  BfsTree Bfs(NodeId source, const std::vector<char>* avoid = nullptr) const;

  /// Grid side length when built by Grid(); nullopt otherwise.
  std::optional<int> grid_side() const { return grid_side_; }

  /// Grid helpers (valid for Grid topologies).
  NodeId GridNode(int p, int q) const;
  std::pair<int, int> GridCoord(NodeId id) const;

  /// The node whose location is closest to (x, y) (Euclidean; ties broken
  /// by lower id).
  NodeId ClosestNode(double x, double y) const;

  /// Network diameter in hops: the largest BFS eccentricity over all
  /// nodes, 2(m-1) in closed form on Grid(m); -1 if disconnected.
  int DiameterHops() const;

 private:
  void BuildAdjacency();
  void BuildCells();
  size_t CellIndex(int cx, int cy) const {
    return static_cast<size_t>(cy) * static_cast<size_t>(cells_x_) +
           static_cast<size_t>(cx);
  }

  std::vector<Location> locations_;
  std::vector<std::vector<NodeId>> adjacency_;
  double range_ = 1.0;
  std::optional<int> grid_side_;

  /// Spatial bucket grid over the bounding box, cell size = radio range:
  /// adjacency construction scans 3x3 neighborhoods instead of all pairs,
  /// and ClosestNode (the geo-hash home lookup, called per tuple) does an
  /// expanding ring search instead of a linear scan.
  double cell_size_ = 1.0;
  double cells_min_x_ = 0, cells_min_y_ = 0;
  int cells_x_ = 0, cells_y_ = 0;
  std::vector<std::vector<NodeId>> cells_;
};

}  // namespace deduce

#endif  // DEDUCE_NET_TOPOLOGY_H_
