#pragma once

/// \file segment.h
/// Line segments and the intersection predicates used by planarization
/// checks and face routing.

#include <optional>

#include "geometry/vec2.h"

namespace spr {

/// Closed segment from a to b.
struct Segment {
  Vec2 a;
  Vec2 b;

  double length() const noexcept { return distance(a, b); }
  Vec2 direction() const noexcept { return (b - a).normalized(); }

  /// Point at parameter t in [0,1].
  constexpr Vec2 at(double t) const noexcept { return a + (b - a) * t; }
};

/// True when p lies on segment s (within eps).
bool on_segment(const Segment& s, Vec2 p, double eps = 1e-9) noexcept;

/// Proper or improper intersection test between closed segments.
bool segments_intersect(const Segment& s1, const Segment& s2) noexcept;

/// True only for *proper* crossings: the open interiors intersect at a single
/// point (shared endpoints do not count). This is the predicate used by the
/// planarity checker, where adjacent edges legitimately share endpoints.
bool segments_cross_properly(const Segment& s1, const Segment& s2) noexcept;

/// Intersection point of the closed segments, if any (for collinear overlap
/// an arbitrary shared point is returned).
std::optional<Vec2> segment_intersection(const Segment& s1, const Segment& s2) noexcept;

/// Distance from point p to the closed segment s.
double point_segment_distance(Vec2 p, const Segment& s) noexcept;

// Forward declaration (rect.h defines Rect; included by most users).
class Rect;

/// True when the closed segment intersects the closed rectangle (an
/// endpoint inside counts). Used by SLGF2's superseding rule to ask whether
/// an estimated unsafe area actually blocks the straight line to d.
bool segment_intersects_rect(const Segment& s, const Rect& r) noexcept;

}  // namespace spr
