/// \file deployment.cpp
/// The IA and FA deployment draws. FA rejection sampling tests every drawn
/// point against every forbidden area, and most points lie far from all of
/// them: Polygon::contains rejects a point outside an area's inflated
/// bounding box with one box test, so only points near an area pay its
/// per-edge boundary test and ray cast. The gate changes no answer, so the
/// RNG draws and the positions are those of an ungated sampler, bit for bit
/// (tests/support/deploy_reference.h).

#include "deploy/deployment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geometry/angle.h"
#include "util/check.h"

namespace spr {

bool Deployment::in_forbidden_area(Vec2 p) const noexcept {
  for (const Polygon& area : forbidden_areas) {
    if (area.contains(p)) return true;
  }
  return false;
}

namespace {

/// Rejects configs no deployment can honour, naming the field, instead of
/// letting them surface as an untyped allocation error or a silently wrong
/// field. The FA knobs are checked only under the FA model.
void check_config(const DeploymentConfig& config) {
  SPR_CHECK(config.node_count >= 0, "DeploymentConfig: node_count ",
            config.node_count, " is negative");
  if (config.model != DeployModel::kForbiddenAreas) return;
  SPR_CHECK(config.min_forbidden_areas >= 0 &&
                config.min_forbidden_areas <= config.max_forbidden_areas,
            "DeploymentConfig: min_forbidden_areas ",
            config.min_forbidden_areas, " is not in [0, max_forbidden_areas ",
            config.max_forbidden_areas, "]");
  SPR_CHECK(config.min_forbidden_extent >= 0.0 &&
                config.min_forbidden_extent <= config.max_forbidden_extent &&
                std::isfinite(config.max_forbidden_extent),
            "DeploymentConfig: min_forbidden_extent ",
            config.min_forbidden_extent,
            " is not in [0, max_forbidden_extent ", config.max_forbidden_extent,
            "]");
  SPR_CHECK(config.irregular_fraction >= 0.0 && config.irregular_fraction <= 1.0,
            "DeploymentConfig: irregular_fraction ", config.irregular_fraction,
            " is not in [0, 1]");
  // A margin of half the field's shorter side or more leaves no room for a
  // hole centre: every hole would collapse onto the field centre.
  const double side = std::min(config.field.width(), config.field.height());
  SPR_CHECK(config.forbidden_margin >= 0.0 &&
                2.0 * config.forbidden_margin < side,
            "DeploymentConfig: forbidden_margin ", config.forbidden_margin,
            " is not in [0, ", side / 2.0, ") for this field");
}

Polygon random_forbidden_polygon(const DeploymentConfig& config, Rng& rng) {
  Rect inner = config.field.inflated(-config.forbidden_margin);
  Vec2 center{rng.uniform(inner.lo().x, inner.hi().x),
              rng.uniform(inner.lo().y, inner.hi().y)};
  double extent = rng.uniform(config.min_forbidden_extent,
                              config.max_forbidden_extent);
  if (rng.chance(config.irregular_fraction)) {
    // Star-shaped irregular polygon: random radii around the center.
    int sides = rng.uniform_int(5, 9);
    std::vector<Vec2> vs;
    vs.reserve(static_cast<size_t>(sides));
    for (int i = 0; i < sides; ++i) {
      double angle = kTwoPi * i / sides;
      double radius = 0.5 * extent * rng.uniform(0.55, 1.0);
      vs.push_back({center.x + radius * std::cos(angle),
                    center.y + radius * std::sin(angle)});
    }
    return Polygon(std::move(vs));
  }
  double w = extent * rng.uniform(0.6, 1.0);
  double h = extent * rng.uniform(0.6, 1.0);
  return Polygon::from_rect(
      Rect::from_corners({center.x - w / 2, center.y - h / 2},
                         {center.x + w / 2, center.y + h / 2}));
}

}  // namespace

Deployment deploy(const DeploymentConfig& config, Rng& rng) {
  check_config(config);
  Deployment out;
  out.field = config.field;
  out.radio_range = config.radio_range;

  if (config.model == DeployModel::kForbiddenAreas) {
    int count = rng.uniform_int(config.min_forbidden_areas,
                                config.max_forbidden_areas);
    out.forbidden_areas.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      out.forbidden_areas.push_back(random_forbidden_polygon(config, rng));
    }
  }

  out.positions.reserve(static_cast<size_t>(config.node_count));
  // Rejection sampling; forbidden areas cover a bounded field fraction, so
  // this terminates quickly. A hard cap guards against pathological configs.
  const std::int64_t max_attempts = std::int64_t{config.node_count} * 1000;
  std::int64_t attempts = 0;
  while (static_cast<int>(out.positions.size()) < config.node_count &&
         attempts++ < max_attempts) {
    Vec2 p{rng.uniform(config.field.lo().x, config.field.hi().x),
           rng.uniform(config.field.lo().y, config.field.hi().y)};
    if (!out.in_forbidden_area(p)) out.positions.push_back(p);
  }
  return out;
}

}  // namespace spr
