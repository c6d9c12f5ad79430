#pragma once

/// \file quadrant.h
/// LAR-scheme-1 request zones and the four forwarding-zone types.
///
/// Following the paper's Section 3: the request zone Z_i(u,d) is the
/// rectangle [x_u : x_d, y_u : y_d]; its type i in {1..4} is the quadrant of
/// d relative to u (1 = Northeast/I, 2 = Northwest/II, 3 = Southwest/III,
/// 4 = Southeast/IV). Q_i(u) is the corresponding unbounded quadrant and a
/// greedy advance within Z_i(u,d) is a "type-i forwarding".
///
/// Boundary convention (half-open so every point except u itself belongs to
/// exactly one quadrant): type 1 includes both bounding axes (x >= x_u and
/// y >= y_u), type 2 includes the -x axis, type 3 neither, type 4 the -y
/// axis. Formally: type 1 = {x>=x_u, y>=y_u}, type 2 = {x<x_u, y>=y_u},
/// type 3 = {x<x_u, y<y_u}, type 4 = {x>=x_u, y<y_u}.

#include <array>
#include <cstdint>
#include <iosfwd>

#include "geometry/angle.h"
#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace spr {

/// Forwarding-zone / request-zone type. Values are the paper's 1..4.
enum class ZoneType : std::uint8_t { k1 = 1, k2 = 2, k3 = 3, k4 = 4 };

inline constexpr std::array<ZoneType, 4> kAllZoneTypes = {
    ZoneType::k1, ZoneType::k2, ZoneType::k3, ZoneType::k4};

/// 0-based index for array storage.
constexpr int zone_index(ZoneType t) noexcept { return static_cast<int>(t) - 1; }
constexpr ZoneType zone_from_index(int i) noexcept {
  return static_cast<ZoneType>(i + 1);
}

/// The paper's k' = (k+2) Mod 4 (1-based): the type of the request zone seen
/// from the other endpoint. 1<->3, 2<->4.
constexpr ZoneType opposite_zone(ZoneType t) noexcept {
  return zone_from_index((zone_index(t) + 2) % 4);
}

/// Quadrant of `d` relative to `u` (the type of Z(u,d)). Requires d != u
/// conceptually; for d == u returns type 1 by the boundary convention.
constexpr ZoneType zone_type(Vec2 u, Vec2 d) noexcept {
  if (d.x >= u.x) {
    return d.y >= u.y ? ZoneType::k1 : ZoneType::k4;
  }
  return d.y >= u.y ? ZoneType::k2 : ZoneType::k3;
}

/// Membership of p in the unbounded quadrant Q_t(u). Consistent with
/// `zone_type`: for p != u, in_quadrant(u, p, t) iff zone_type(u, p) == t.
constexpr bool in_quadrant(Vec2 u, Vec2 p, ZoneType t) noexcept {
  switch (t) {
    case ZoneType::k1: return p.x >= u.x && p.y >= u.y;
    case ZoneType::k2: return p.x < u.x && p.y >= u.y;
    case ZoneType::k3: return p.x < u.x && p.y < u.y;
    case ZoneType::k4: return p.x >= u.x && p.y < u.y;
  }
  return false;
}

/// The request zone rectangle Z(u,d) = [x_u : x_d, y_u : y_d]; closed, so
/// u and d are members.
constexpr Rect request_zone(Vec2 u, Vec2 d) noexcept {
  return Rect::from_corners(u, d);
}

/// Bearing of the clockwise boundary axis of Q_t: quadrant t spans bearings
/// [(t-1)*pi/2, t*pi/2]. The paper's shape scan rotates a ray counter-
/// clockwise across Q_i starting from this axis.
constexpr double quadrant_start_bearing(ZoneType t) noexcept {
  return (static_cast<int>(t) - 1) * (kPi / 2.0);
}

/// Unit vector along the quadrant's diagonal (45 degrees into Q_t); useful
/// as the "into the quadrant" direction.
Vec2 quadrant_diagonal(ZoneType t) noexcept;

/// The quadrant's x/y direction signs: (+1,+1) for type 1, (-1,+1) for 2,
/// (-1,-1) for 3, (+1,-1) for 4.
constexpr Vec2 quadrant_signs(ZoneType t) noexcept {
  switch (t) {
    case ZoneType::k1: return {1.0, 1.0};
    case ZoneType::k2: return {-1.0, 1.0};
    case ZoneType::k3: return {-1.0, -1.0};
    case ZoneType::k4: return {1.0, -1.0};
  }
  return {1.0, 1.0};
}

std::ostream& operator<<(std::ostream& os, ZoneType t);

}  // namespace spr
