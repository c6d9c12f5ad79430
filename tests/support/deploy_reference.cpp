#include "support/deploy_reference.h"

#include <cmath>
#include <cstdint>

#include "geometry/angle.h"
#include "geometry/polygon.h"
#include "geometry/segment.h"

namespace spr::test {

bool polygon_contains_ungated(const std::vector<Vec2>& vertices, Vec2 p) {
  const std::size_t n = vertices.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (on_segment({vertices[i], vertices[(i + 1) % n]}, p,
                   Polygon::kBoundaryTolerance)) {
      return true;
    }
  }
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    Vec2 a = vertices[i], b = vertices[j];
    bool straddles = (a.y > p.y) != (b.y > p.y);
    if (straddles) {
      double x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (p.x < x_at) inside = !inside;
    }
  }
  return inside;
}

namespace {

/// The forbidden-area draw of deployment.cpp, draw for draw.
std::vector<Vec2> forbidden_vertices(const DeploymentConfig& config,
                                     Rng& rng) {
  Rect inner = config.field.inflated(-config.forbidden_margin);
  Vec2 center{rng.uniform(inner.lo().x, inner.hi().x),
              rng.uniform(inner.lo().y, inner.hi().y)};
  double extent = rng.uniform(config.min_forbidden_extent,
                              config.max_forbidden_extent);
  if (rng.chance(config.irregular_fraction)) {
    int sides = rng.uniform_int(5, 9);
    std::vector<Vec2> vs;
    for (int i = 0; i < sides; ++i) {
      double angle = kTwoPi * i / sides;
      double radius = 0.5 * extent * rng.uniform(0.55, 1.0);
      vs.push_back({center.x + radius * std::cos(angle),
                    center.y + radius * std::sin(angle)});
    }
    return vs;
  }
  double w = extent * rng.uniform(0.6, 1.0);
  double h = extent * rng.uniform(0.6, 1.0);
  return Polygon::from_rect(
             Rect::from_corners({center.x - w / 2, center.y - h / 2},
                                {center.x + w / 2, center.y + h / 2}))
      .vertices();
}

}  // namespace

Deployment deploy_ungated(const DeploymentConfig& config, Rng& rng) {
  Deployment out;
  out.field = config.field;
  out.radio_range = config.radio_range;
  std::vector<std::vector<Vec2>> areas;
  if (config.model == DeployModel::kForbiddenAreas) {
    int count = rng.uniform_int(config.min_forbidden_areas,
                                config.max_forbidden_areas);
    for (int i = 0; i < count; ++i) {
      areas.push_back(forbidden_vertices(config, rng));
      out.forbidden_areas.emplace_back(areas.back());
    }
  }
  const std::int64_t max_attempts = std::int64_t{config.node_count} * 1000;
  std::int64_t attempts = 0;
  while (static_cast<int>(out.positions.size()) < config.node_count &&
         attempts++ < max_attempts) {
    Vec2 p{rng.uniform(config.field.lo().x, config.field.hi().x),
           rng.uniform(config.field.lo().y, config.field.hi().y)};
    bool forbidden = false;
    for (const auto& area : areas) {
      forbidden = forbidden || polygon_contains_ungated(area, p);
    }
    if (!forbidden) out.positions.push_back(p);
  }
  return out;
}

}  // namespace spr::test
