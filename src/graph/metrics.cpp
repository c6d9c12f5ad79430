#include "graph/metrics.h"

#include <algorithm>
#include <limits>

#include "graph/graph_algos.h"

namespace spr {

DegreeStats degree_stats(const UnitDiskGraph& g) {
  DegreeStats out;
  if (g.size() == 0) return out;
  out.min = std::numeric_limits<std::size_t>::max();
  double sum = 0.0;
  for (NodeId u = 0; u < g.size(); ++u) {
    std::size_t deg = g.degree(u);
    sum += static_cast<double>(deg);
    out.min = std::min(out.min, deg);
    out.max = std::max(out.max, deg);
    if (deg >= out.histogram.size()) out.histogram.resize(deg + 1, 0);
    ++out.histogram[deg];
  }
  out.mean = sum / static_cast<double>(g.size());
  return out;
}

double largest_component_fraction(const UnitDiskGraph& g) {
  std::size_t alive = 0;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.alive(u)) ++alive;
  }
  if (alive == 0) return 0.0;
  return static_cast<double>(largest_component(g).size()) /
         static_cast<double>(alive);
}

namespace {
/// Farthest node from `source` and its hop distance, by BFS.
std::pair<NodeId, std::size_t> farthest(const UnitDiskGraph& g, NodeId source) {
  auto dist = bfs_hops(g, source);
  NodeId best = source;
  std::size_t best_dist = 0;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (dist[u] == std::numeric_limits<std::size_t>::max()) continue;
    if (dist[u] > best_dist) {
      best_dist = dist[u];
      best = u;
    }
  }
  return {best, best_dist};
}
}  // namespace

std::size_t hop_diameter_estimate(const UnitDiskGraph& g) {
  auto component = largest_component(g);
  if (component.empty()) return 0;
  auto [far_node, first] = farthest(g, component.front());
  auto [_, second] = farthest(g, far_node);
  return std::max(first, second);
}

}  // namespace spr
