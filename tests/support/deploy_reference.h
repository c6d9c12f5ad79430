#pragma once

/// \file deploy_reference.h
/// The FA deployment without the bounding-box gate: the even-odd
/// containment rule exactly as Polygon::contains runs it for a point inside
/// its gate, applied to every point, and a rejection sampler that makes the
/// same RNG draws as `deploy` but tests each drawn point with that ungated
/// rule. The gate's differential tests compare the library against these.

#include <vector>

#include "deploy/deployment.h"
#include "deploy/rng.h"
#include "geometry/vec2.h"

namespace spr::test {

/// Even-odd containment over `vertices` with the boundary (within
/// Polygon::kBoundaryTolerance of an edge) inside; fewer than 3 vertices
/// contain nothing. Every edge pays its boundary distance, near or far.
bool polygon_contains_ungated(const std::vector<Vec2>& vertices, Vec2 p);

/// `deploy(config, rng)` with each drawn point tested against every
/// forbidden area by polygon_contains_ungated. Does not validate `config`.
Deployment deploy_ungated(const DeploymentConfig& config, Rng& rng);

}  // namespace spr::test
