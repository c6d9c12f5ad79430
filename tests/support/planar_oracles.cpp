#include "support/planar_oracles.h"

#include <queue>
#include <utility>
#include <vector>

#include "geometry/segment.h"

namespace spr::test {

bool overlay_is_planar(const UnitDiskGraph& g, const PlanarOverlay& overlay) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.size(); ++u) {
    for (NodeId v : overlay.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    Segment si{g.position(edges[i].first), g.position(edges[i].second)};
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      // Edges sharing an endpoint cannot cross properly; skip cheaply.
      if (edges[i].first == edges[j].first || edges[i].first == edges[j].second ||
          edges[i].second == edges[j].first || edges[i].second == edges[j].second) {
        continue;
      }
      Segment sj{g.position(edges[j].first), g.position(edges[j].second)};
      if (segments_cross_properly(si, sj)) return false;
    }
  }
  return true;
}

bool overlay_preserves_connectivity(const UnitDiskGraph& g,
                                    const PlanarOverlay& overlay) {
  const std::size_t n = g.size();
  // Union components of the overlay, then check every UDG edge joins nodes
  // in the same overlay component.
  std::vector<int> label(n, -1);
  int next = 0;
  std::queue<NodeId> frontier;
  for (NodeId s = 0; s < n; ++s) {
    if (label[s] != -1) continue;
    label[s] = next;
    frontier.push(s);
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : overlay.neighbors(u)) {
        if (label[v] == -1) {
          label[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (label[u] != label[v]) return false;
    }
  }
  return true;
}

}  // namespace spr::test
