#pragma once

/// \file hull.h
/// Convex hull (Andrew monotone chain). The paper's "hull algorithm" is used
/// to delimit the interest area: nodes on (or near) the hull are *edge nodes*
/// whose safety tuple stays (1,1,1,1).

#include <vector>

#include "geometry/vec2.h"

namespace spr {

/// Convex hull of `points` in counter-clockwise order. Collinear points on
/// the hull boundary are dropped. Degenerate inputs (<3 distinct points)
/// return the distinct points.
std::vector<Vec2> convex_hull(std::vector<Vec2> points);

/// Indices into `points` of the hull vertices, CCW. Stable w.r.t. the input:
/// each hull vertex reports the first index carrying that coordinate.
std::vector<std::size_t> convex_hull_indices(const std::vector<Vec2>& points);

/// Distance from `p` to the hull boundary (0 if `p` is a hull vertex;
/// positive otherwise, whether inside or outside).
double distance_to_hull_boundary(const std::vector<Vec2>& hull, Vec2 p);

}  // namespace spr
