#include "test_helpers.h"

#include <algorithm>
#include <cmath>

namespace spr::test {

UnitDiskGraph make_graph(std::vector<Vec2> positions, double range) {
  Rect bounds = Rect::from_bounds({0.0, 0.0}, {1.0, 1.0});
  for (Vec2 p : positions) bounds = bounds.expanded_to(p);
  bounds = bounds.inflated(range);
  return UnitDiskGraph(std::move(positions), range, bounds);
}

Deployment deploy_perturbed_grid(const DeploymentConfig& config, Rng& rng,
                                 double jitter_fraction) {
  Deployment out;
  out.field = config.field;
  out.radio_range = config.radio_range;

  int per_side = std::max(
      1, static_cast<int>(std::round(std::sqrt(config.node_count))));
  double dx = config.field.width() / per_side;
  double dy = config.field.height() / per_side;
  out.positions.reserve(static_cast<size_t>(per_side) * per_side);
  for (int row = 0; row < per_side; ++row) {
    for (int col = 0; col < per_side; ++col) {
      double cx = config.field.lo().x + (col + 0.5) * dx;
      double cy = config.field.lo().y + (row + 0.5) * dy;
      double jx = rng.uniform(-jitter_fraction, jitter_fraction) * dx;
      double jy = rng.uniform(-jitter_fraction, jitter_fraction) * dy;
      out.positions.push_back({cx + jx, cy + jy});
    }
  }
  return out;
}

Deployment dense_grid_deployment(int node_count, std::uint64_t seed) {
  DeploymentConfig config;
  config.node_count = node_count;
  Rng rng(seed);
  return deploy_perturbed_grid(config, rng, 0.2);
}

Deployment grid_with_void(int per_side, double spacing, Rect void_rect) {
  Deployment d;
  d.field = Rect::from_bounds({0.0, 0.0},
                              {spacing * (per_side + 1), spacing * (per_side + 1)});
  d.radio_range = spacing * 1.5;  // 8-connected grid
  for (int row = 1; row <= per_side; ++row) {
    for (int col = 1; col <= per_side; ++col) {
      Vec2 p{col * spacing, row * spacing};
      if (void_rect.contains(p)) continue;
      d.positions.push_back(p);
    }
  }
  return d;
}

Network random_network(int node_count, std::uint64_t seed, DeployModel model) {
  NetworkConfig config;
  config.deployment.node_count = node_count;
  config.deployment.model = model;
  config.seed = seed;
  return Network::create(config);
}

std::vector<std::uint64_t> property_seeds() {
  return {11, 23, 37, 59, 71, 97, 113, 131};
}

}  // namespace spr::test
