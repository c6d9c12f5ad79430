#include "deploy/interest_area.h"

#include <algorithm>
#include <cmath>

#include "geometry/hull.h"
#include "util/check.h"

namespace spr {

InterestArea::InterestArea(const UnitDiskGraph& g, double edge_band) {
  hull_ = convex_hull(g.positions());
  edge_.assign(g.size(), false);

  // Unit inward normal and offset of each CCW hull edge's supporting line:
  // normal·p - offset is p's signed depth behind that edge. Degenerate
  // hulls (< 3 vertices) have no interior, so every node takes the exact
  // path.
  std::vector<Vec2> normals;
  std::vector<double> offsets;
  double max_coord = 0.0;
  if (hull_.size() >= 3) {
    for (std::size_t i = 0, j = hull_.size() - 1; i < hull_.size(); j = i++) {
      const Vec2 normal = (hull_[i] - hull_[j]).perp().normalized();
      normals.push_back(normal);
      offsets.push_back(normal.dot(hull_[j]));
      max_coord = std::max({max_coord, std::abs(hull_[i].x),
                            std::abs(hull_[i].y)});
    }
  }
  // Rounding in the depth and in the exact distance is far below this
  // slack, so a node skipped as deep would also fail the exact test.
  const double deep = edge_band + (1e-9 * (max_coord + edge_band) + 1e-9);

  for (NodeId u = 0; u < g.size(); ++u) {
    const Vec2 p = g.position(u);
    bool near_boundary = normals.empty();
    for (std::size_t e = 0; e < normals.size() && !near_boundary; ++e) {
      near_boundary = !(normals[e].dot(p) - offsets[e] > deep);
    }
    if (near_boundary) {
      edge_[u] = distance_to_hull_boundary(hull_, p) <= edge_band;
    }
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!edge_[u] && g.alive(u)) interior_.push_back(u);
  }
}

InterestArea::InterestArea(const UnitDiskGraph& g,
                           std::vector<bool> edge_flags, std::vector<Vec2> hull)
    : edge_(std::move(edge_flags)), hull_(std::move(hull)) {
  edge_.resize(g.size(), false);
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!edge_[u] && g.alive(u)) interior_.push_back(u);
  }
}

InterestArea InterestArea::with_failures(const UnitDiskGraph& degraded) const {
  SPR_CHECK(degraded.size() == edge_.size(), "InterestArea::with_failures: ",
            degraded.size(), " nodes for an area over ", edge_.size());
  return InterestArea(degraded, edge_, hull_);
}

std::size_t InterestArea::edge_count() const noexcept {
  return static_cast<std::size_t>(std::count(edge_.begin(), edge_.end(), true));
}

}  // namespace spr
