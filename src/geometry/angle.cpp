#include "geometry/angle.h"

#include <cmath>

namespace spr {

double bearing(Vec2 v) noexcept { return normalize_angle(std::atan2(v.y, v.x)); }

double bearing(Vec2 from, Vec2 to) noexcept { return bearing(to - from); }

double normalize_angle(double radians) noexcept {
  // fmod is exact and returns its argument unchanged when |x| < 2*pi, so
  // the common in-range case skips the call with bit-identical results.
  if (radians > -kTwoPi && radians < kTwoPi) {
    return radians < 0.0 ? radians + kTwoPi : radians;
  }
  double a = std::fmod(radians, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  return a;
}

double ccw_delta(double start_bearing, double target_bearing) noexcept {
  return normalize_angle(target_bearing - start_bearing);
}

double cw_delta(double start_bearing, double target_bearing) noexcept {
  return normalize_angle(start_bearing - target_bearing);
}

double CcwScan::sweep_to(Vec2 p) const noexcept {
  return ccw_delta(start_, bearing(pivot_, p));
}

bool CcwScan::operator()(Vec2 a, Vec2 b) const noexcept {
  bool a_pivot = almost_equal(a, pivot_);
  bool b_pivot = almost_equal(b, pivot_);
  if (a_pivot != b_pivot) return b_pivot;  // pivot-coincident points last
  if (a_pivot) return false;
  double sa = sweep_to(a), sb = sweep_to(b);
  if (sa != sb) return sa < sb;
  return distance_sq(pivot_, a) < distance_sq(pivot_, b);
}

double CwScan::sweep_to(Vec2 p) const noexcept {
  return cw_delta(start_, bearing(pivot_, p));
}

bool CwScan::operator()(Vec2 a, Vec2 b) const noexcept {
  bool a_pivot = almost_equal(a, pivot_);
  bool b_pivot = almost_equal(b, pivot_);
  if (a_pivot != b_pivot) return b_pivot;
  if (a_pivot) return false;
  double sa = sweep_to(a), sb = sweep_to(b);
  if (sa != sb) return sa < sb;
  return distance_sq(pivot_, a) < distance_sq(pivot_, b);
}

}  // namespace spr
