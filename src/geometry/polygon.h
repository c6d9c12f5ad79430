#pragma once

/// \file polygon.h
/// Simple polygons: containment, area, perimeter. Used by the FA deployment
/// model (irregular forbidden areas) and by hole-boundary reporting.

#include <vector>

#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace spr {

/// A simple polygon given by its vertices in order (either orientation).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Vec2> vertices) : vertices_(std::move(vertices)) {}

  /// Convenience: the rectangle as a 4-gon (CCW).
  static Polygon from_rect(const Rect& r);

  /// Regular n-gon approximation of a disc (CCW), n >= 3.
  static Polygon regular(Vec2 center, double radius, int sides);

  const std::vector<Vec2>& vertices() const noexcept { return vertices_; }
  bool empty() const noexcept { return vertices_.empty(); }
  std::size_t size() const noexcept { return vertices_.size(); }

  /// Even-odd rule point containment; boundary points count as inside.
  bool contains(Vec2 p) const noexcept;

  /// Signed area (positive for CCW ordering).
  double signed_area() const noexcept;
  double area() const noexcept;
  double perimeter() const noexcept;

  Rect bounding_box() const noexcept;

 private:
  std::vector<Vec2> vertices_;
};

}  // namespace spr
