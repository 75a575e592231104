#include "deduce/net/topology.h"

#include <algorithm>

#include "deduce/common/logging.h"

namespace deduce {

Topology Topology::Grid(int m) {
  DEDUCE_CHECK(m >= 1);
  Topology t;
  t.range_ = 1.0;
  t.grid_side_ = m;
  t.locations_.reserve(static_cast<size_t>(m) * static_cast<size_t>(m));
  for (int q = 0; q < m; ++q) {
    for (int p = 0; p < m; ++p) {
      t.locations_.push_back(
          Location{static_cast<double>(p), static_cast<double>(q)});
    }
  }
  t.BuildAdjacency();
  return t;
}

Topology Topology::Line(int n) {
  DEDUCE_CHECK(n >= 1);
  Topology t;
  t.range_ = 1.0;
  for (int i = 0; i < n; ++i) {
    t.locations_.push_back(Location{static_cast<double>(i), 0.0});
  }
  t.BuildAdjacency();
  return t;
}

Topology Topology::RandomGeometric(int n, double width, double height,
                                   double range, Rng* rng) {
  DEDUCE_CHECK(n >= 1);
  Topology t;
  t.range_ = range;
  for (int i = 0; i < n; ++i) {
    t.locations_.push_back(Location{rng->UniformDouble(0, width),
                                    rng->UniformDouble(0, height)});
  }
  t.BuildAdjacency();
  return t;
}

void Topology::BuildCells() {
  size_t n = locations_.size();
  cells_.clear();
  cells_x_ = cells_y_ = 0;
  if (n == 0) return;
  double min_x = locations_[0].x, max_x = locations_[0].x;
  double min_y = locations_[0].y, max_y = locations_[0].y;
  for (const Location& l : locations_) {
    min_x = std::min(min_x, l.x);
    max_x = std::max(max_x, l.x);
    min_y = std::min(min_y, l.y);
    max_y = std::max(max_y, l.y);
  }
  cell_size_ = std::max(range_, 1e-9);
  cells_min_x_ = min_x;
  cells_min_y_ = min_y;
  cells_x_ = static_cast<int>((max_x - min_x) / cell_size_) + 1;
  cells_y_ = static_cast<int>((max_y - min_y) / cell_size_) + 1;
  cells_.assign(static_cast<size_t>(cells_x_) * static_cast<size_t>(cells_y_),
                {});
  for (size_t i = 0; i < n; ++i) {
    int cx = std::min(cells_x_ - 1,
                      static_cast<int>((locations_[i].x - min_x) / cell_size_));
    int cy = std::min(cells_y_ - 1,
                      static_cast<int>((locations_[i].y - min_y) / cell_size_));
    cells_[CellIndex(cx, cy)].push_back(static_cast<NodeId>(i));
  }
}

void Topology::BuildAdjacency() {
  const double eps = 1e-9;
  size_t n = locations_.size();
  BuildCells();
  adjacency_.assign(n, {});
  // Cell size >= range, so every neighbor of a node lives in its 3x3 cell
  // neighborhood: O(n * density) instead of all pairs.
  for (size_t i = 0; i < n; ++i) {
    const Location& li = locations_[i];
    int cx = std::min(cells_x_ - 1,
                      static_cast<int>((li.x - cells_min_x_) / cell_size_));
    int cy = std::min(cells_y_ - 1,
                      static_cast<int>((li.y - cells_min_y_) / cell_size_));
    for (int dy = -1; dy <= 1; ++dy) {
      int yy = cy + dy;
      if (yy < 0 || yy >= cells_y_) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        int xx = cx + dx;
        if (xx < 0 || xx >= cells_x_) continue;
        for (NodeId j : cells_[CellIndex(xx, yy)]) {
          if (static_cast<size_t>(j) == i) continue;
          if (li.DistanceTo(locations_[static_cast<size_t>(j)]) <=
              range_ + eps) {
            adjacency_[i].push_back(j);
          }
        }
      }
    }
  }
  for (auto& adj : adjacency_) std::sort(adj.begin(), adj.end());
}

bool Topology::AreNeighbors(NodeId a, NodeId b) const {
  const auto& adj = adjacency_[static_cast<size_t>(a)];
  return std::binary_search(adj.begin(), adj.end(), b);
}

bool Topology::IsConnected() const {
  if (locations_.empty()) return true;
  return Bfs(0).reached == node_count();
}

BfsTree Topology::Bfs(NodeId source, const std::vector<char>* avoid) const {
  size_t n = locations_.size();
  BfsTree tree;
  tree.parent.assign(n, kNoNode);
  tree.dist.assign(n, -1);
  // Each node is enqueued at most once, so a flat array read through a
  // cursor is the FIFO queue.
  std::vector<NodeId> queue;
  queue.reserve(n);
  tree.parent[static_cast<size_t>(source)] = source;
  tree.dist[static_cast<size_t>(source)] = 0;
  queue.push_back(source);
  for (size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    int next = tree.dist[static_cast<size_t>(u)] + 1;
    for (NodeId v : adjacency_[static_cast<size_t>(u)]) {
      size_t vi = static_cast<size_t>(v);
      if (tree.dist[vi] != -1) continue;
      if (avoid != nullptr && vi < avoid->size() && (*avoid)[vi] != 0) {
        continue;
      }
      tree.dist[vi] = next;
      tree.parent[vi] = u;
      queue.push_back(v);
    }
  }
  tree.reached = static_cast<int>(queue.size());
  tree.eccentricity = tree.dist[static_cast<size_t>(queue.back())];
  return tree;
}

NodeId Topology::GridNode(int p, int q) const {
  DEDUCE_CHECK(grid_side_.has_value());
  DEDUCE_CHECK(p >= 0 && p < *grid_side_ && q >= 0 && q < *grid_side_);
  return q * *grid_side_ + p;
}

std::pair<int, int> Topology::GridCoord(NodeId id) const {
  DEDUCE_CHECK(grid_side_.has_value());
  int m = *grid_side_;
  return {static_cast<int>(id) % m, static_cast<int>(id) / m};
}

NodeId Topology::ClosestNode(double x, double y) const {
  Location target{x, y};
  if (cells_.empty()) {
    NodeId best = 0;
    double best_d = locations_[0].DistanceTo(target);
    for (size_t i = 1; i < locations_.size(); ++i) {
      double d = locations_[i].DistanceTo(target);
      if (d < best_d) {
        best_d = d;
        best = static_cast<NodeId>(i);
      }
    }
    return best;
  }
  // Expanding ring search over the bucket grid. Equivalent to the linear
  // scan: the running best is kept by (distance, id), matching the linear
  // scan's lowest-id tie-break, and the search only stops once no unscanned
  // cell can hold a strictly closer node.
  int ccx = std::clamp(
      static_cast<int>(std::floor((x - cells_min_x_) / cell_size_)), 0,
      cells_x_ - 1);
  int ccy = std::clamp(
      static_cast<int>(std::floor((y - cells_min_y_) / cell_size_)), 0,
      cells_y_ - 1);
  int k_max = std::max(std::max(ccx, cells_x_ - 1 - ccx),
                       std::max(ccy, cells_y_ - 1 - ccy));
  NodeId best = kNoNode;
  double best_d = 0;
  for (int k = 0; k <= k_max; ++k) {
    for (int yy = ccy - k; yy <= ccy + k; ++yy) {
      if (yy < 0 || yy >= cells_y_) continue;
      bool edge_row = (yy == ccy - k || yy == ccy + k);
      int step = edge_row ? 1 : 2 * k;
      for (int xx = ccx - k; xx <= ccx + k; xx += (step == 0 ? 1 : step)) {
        if (xx < 0 || xx >= cells_x_) continue;
        for (NodeId id : cells_[CellIndex(xx, yy)]) {
          double d = locations_[static_cast<size_t>(id)].DistanceTo(target);
          if (best == kNoNode || d < best_d || (d == best_d && id < best)) {
            best_d = d;
            best = id;
          }
        }
        if (k == 0) break;  // center ring is a single cell
      }
    }
    if (best != kNoNode) {
      // Everything not yet scanned lies outside the box covered by rings
      // 0..k; stop once the best candidate beats the closest possible
      // unscanned point.
      double left = cells_min_x_ + static_cast<double>(ccx - k) * cell_size_;
      double right =
          cells_min_x_ + static_cast<double>(ccx + k + 1) * cell_size_;
      double bottom = cells_min_y_ + static_cast<double>(ccy - k) * cell_size_;
      double top = cells_min_y_ + static_cast<double>(ccy + k + 1) * cell_size_;
      double margin = std::min(std::min(x - left, right - x),
                               std::min(y - bottom, top - y));
      if (best_d < margin) break;
    }
  }
  return best;
}

int Topology::DiameterHops() const {
  if (grid_side_.has_value()) return 2 * (*grid_side_ - 1);
  // All-sources BFS is O(n^2) time (one O(n) tree at a time); exact, and
  // only reached off the grid.
  int n = node_count();
  int diameter = 0;
  for (NodeId s = 0; s < n; ++s) {
    BfsTree tree = Bfs(s);
    if (tree.reached != n) return -1;
    diameter = std::max(diameter, tree.eccentricity);
  }
  return diameter;
}

}  // namespace deduce
