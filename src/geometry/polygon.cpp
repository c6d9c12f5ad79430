#include "geometry/polygon.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/angle.h"
#include "geometry/segment.h"

namespace spr {

Polygon::Polygon(std::vector<Vec2> vertices) : vertices_(std::move(vertices)) {
  if (vertices_.empty()) return;
  double magnitude = 0.0;
  bool finite = true;
  box_ = Rect::from_corners(vertices_.front(), vertices_.front());
  for (Vec2 v : vertices_) {
    box_ = box_.expanded_to(v);
    magnitude = std::max({magnitude, std::abs(v.x), std::abs(v.y)});
    finite = finite && std::isfinite(v.x) && std::isfinite(v.y);
  }
  // A NaN or infinite vertex leaves no box to trust: such a polygon's gate
  // lets every point through to the ungated rule.
  if (!finite) {
    const double inf = std::numeric_limits<double>::infinity();
    gate_ = Rect::from_bounds({-inf, -inf}, {inf, inf});
    return;
  }
  // The gate must never reject a point the ungated rule accepts. Let p lie
  // more than `margin` outside box_ along x (y is symmetric), u = 2^-53 and
  // M = `magnitude`.
  //  * Boundary test. point_segment_distance rounds the closest point q of
  //    an edge to within 5uM of the edge's x-range, so p.x - q.x exceeds
  //    margin - 5uM > 4e-9, and the subtraction, squares, sum and sqrt lose
  //    a few ulps more: the distance stays above 3e-9, beyond the
  //    kBoundaryTolerance of 1e-9.
  //  * Ray cast. No edge straddles a p.y outside [lo.y, hi.y]. Left of the
  //    box every straddling edge toggles, and a closed polygon has an even
  //    number of them. Right of it, an edge's crossing x_at rounds to
  //    within 12uM of the edge's x-range, so p.x < x_at never holds.
  // 2^-46 M = 128uM covers both rounding terms, and the rounding of the
  // inflated box itself, with room to spare.
  const double margin = 4.0 * kBoundaryTolerance + magnitude * 0x1p-46;
  gate_ = box_.inflated(margin);
}

Polygon Polygon::from_rect(const Rect& r) {
  return Polygon({r.lo(), {r.hi().x, r.lo().y}, r.hi(), {r.lo().x, r.hi().y}});
}

Polygon Polygon::regular(Vec2 center, double radius, int sides) {
  std::vector<Vec2> vs;
  vs.reserve(static_cast<size_t>(sides));
  for (int i = 0; i < sides; ++i) {
    double a = kTwoPi * i / sides;
    vs.push_back({center.x + radius * std::cos(a), center.y + radius * std::sin(a)});
  }
  return Polygon(std::move(vs));
}

bool Polygon::contains(Vec2 p) const noexcept {
  const std::size_t n = vertices_.size();
  if (n < 3 || !gate_.contains(p)) return false;
  // Boundary first: the even-odd ray cast below is unreliable exactly on
  // edges, and the FA model treats the boundary as forbidden.
  for (std::size_t i = 0; i < n; ++i) {
    if (on_segment({vertices_[i], vertices_[(i + 1) % n]}, p,
                   kBoundaryTolerance)) return true;
  }
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    Vec2 a = vertices_[i], b = vertices_[j];
    bool straddles = (a.y > p.y) != (b.y > p.y);
    if (straddles) {
      double x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (p.x < x_at) inside = !inside;
    }
  }
  return inside;
}

double Polygon::signed_area() const noexcept {
  const std::size_t n = vertices_.size();
  if (n < 3) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    sum += vertices_[j].cross(vertices_[i]);
  }
  return 0.5 * sum;
}

double Polygon::area() const noexcept { return std::abs(signed_area()); }

double Polygon::perimeter() const noexcept {
  const std::size_t n = vertices_.size();
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    sum += distance(vertices_[j], vertices_[i]);
  }
  return sum;
}

}  // namespace spr
