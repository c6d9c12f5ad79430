#pragma once

/// \file polygon.h
/// Simple polygons: containment, area, perimeter. Used by the FA deployment
/// model (irregular forbidden areas) and by hole-boundary reporting.
///
/// Containment is the FA deployment's per-point test, so it is gated: a
/// polygon computes its bounding box once, at construction, and `contains`
/// answers false for any point outside that box inflated by a margin that
/// covers the boundary tolerance plus rounding (polygon.cpp). Only points
/// inside the gate pay the per-edge boundary test and the ray cast, and the
/// answer is the ungated rule's, bit for bit.

#include <vector>

#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace spr {

/// A simple polygon given by its vertices in order (either orientation).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Vec2> vertices);

  /// Convenience: the rectangle as a 4-gon (CCW).
  static Polygon from_rect(const Rect& r);

  /// Regular n-gon approximation of a disc (CCW), n >= 3.
  static Polygon regular(Vec2 center, double radius, int sides);

  const std::vector<Vec2>& vertices() const noexcept { return vertices_; }
  bool empty() const noexcept { return vertices_.empty(); }
  std::size_t size() const noexcept { return vertices_.size(); }

  /// Even-odd rule point containment; boundary points (within
  /// kBoundaryTolerance of an edge) count as inside. Fewer than 3 vertices
  /// contain nothing.
  bool contains(Vec2 p) const noexcept;

  /// Signed area (positive for CCW ordering).
  double signed_area() const noexcept;
  double area() const noexcept;
  double perimeter() const noexcept;

  /// The vertices' bounding box (the zero rect for an empty polygon).
  Rect bounding_box() const noexcept { return box_; }

  /// Distance within which a point counts as on an edge, hence inside.
  static constexpr double kBoundaryTolerance = 1e-9;

 private:
  std::vector<Vec2> vertices_;
  Rect box_;   ///< bounding box of vertices_
  Rect gate_;  ///< box_ inflated by the containment margin (polygon.cpp)
};

}  // namespace spr
