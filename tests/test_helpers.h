#pragma once

/// \file test_helpers.h
/// Shared fixtures: hand-crafted topologies with known safety structure and
/// seeded random networks for property sweeps.

#include <utility>
#include <vector>

#include "core/network.h"
#include "deploy/deployment.h"
#include "geometry/vec2.h"
#include "graph/unit_disk.h"

namespace spr::test {

/// Unit-disk graph from explicit positions (default range 20, field sized to
/// fit with margin).
UnitDiskGraph make_graph(std::vector<Vec2> positions, double range = 20.0);

/// Deterministic perturbed-grid deployment: round(sqrt(node_count))^2 nodes,
/// one per cell of `config.field`, each jittered by up to `jitter_fraction`
/// of the cell side (regular coverage for tests that need hole-free fields).
Deployment deploy_perturbed_grid(const DeploymentConfig& config, Rng& rng,
                                 double jitter_fraction = 0.25);

/// A dense perturbed-grid deployment: hole-free, every interior node safe.
Deployment dense_grid_deployment(int node_count = 400, std::uint64_t seed = 7);

/// A grid deployment with a rectangular void punched in the middle —
/// guaranteed hole with a clean boundary. `void_rect` in field coordinates.
Deployment grid_with_void(int per_side, double spacing, Rect void_rect);

/// Full paper-style random network (IA or FA).
Network random_network(int node_count, std::uint64_t seed,
                       DeployModel model = DeployModel::kIdeal);

/// Seeds used by property sweeps (kept small enough for test runtime).
std::vector<std::uint64_t> property_seeds();

}  // namespace spr::test
