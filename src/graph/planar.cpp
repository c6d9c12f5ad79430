#include "graph/planar.h"

#include <algorithm>

namespace spr {

bool gabriel_keeps_edge(const UnitDiskGraph& g, NodeId u, NodeId v) {
  Vec2 pu = g.position(u), pv = g.position(v);
  Vec2 m = midpoint(pu, pv);
  double radius_sq = distance_sq(pu, pv) * 0.25;
  // Witnesses must be common-range candidates; checking u's neighbors
  // suffices because any point in the diameter disc is within |uv| of u.
  for (NodeId w : g.neighbors(u)) {
    if (w == v) continue;
    if (distance_sq(g.position(w), m) < radius_sq - 1e-12) return false;
  }
  for (NodeId w : g.neighbors(v)) {
    if (w == u) continue;
    if (distance_sq(g.position(w), m) < radius_sq - 1e-12) return false;
  }
  return true;
}

PlanarOverlay::PlanarOverlay(const UnitDiskGraph& g) {
  const std::size_t n = g.size();
  std::vector<std::vector<NodeId>> kept(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (v < u) continue;  // test each undirected edge once
      if (gabriel_keeps_edge(g, u, v)) {
        kept[u].push_back(v);
        kept[v].push_back(u);
      }
    }
  }
  offsets_.assign(n + 1, 0);
  std::size_t total = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::sort(kept[u].begin(), kept[u].end());
    offsets_[u] = total;
    total += kept[u].size();
  }
  offsets_[n] = total;
  adjacency_.reserve(total);
  for (NodeId u = 0; u < n; ++u) {
    adjacency_.insert(adjacency_.end(), kept[u].begin(), kept[u].end());
  }
}

bool PlanarOverlay::are_neighbors(NodeId u, NodeId v) const noexcept {
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace spr
