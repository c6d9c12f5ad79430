#include "geometry/quadrant.h"

#include <gtest/gtest.h>

namespace spr {
namespace {

TEST(Quadrant, ZoneTypeOfQuadrants) {
  Vec2 u{10.0, 10.0};
  EXPECT_EQ(zone_type(u, {15.0, 15.0}), ZoneType::k1);  // NE
  EXPECT_EQ(zone_type(u, {5.0, 15.0}), ZoneType::k2);   // NW
  EXPECT_EQ(zone_type(u, {5.0, 5.0}), ZoneType::k3);    // SW
  EXPECT_EQ(zone_type(u, {15.0, 5.0}), ZoneType::k4);   // SE
}

TEST(Quadrant, BoundaryConvention) {
  Vec2 u{0.0, 0.0};
  EXPECT_EQ(zone_type(u, {1.0, 0.0}), ZoneType::k1);   // +x axis -> type 1
  EXPECT_EQ(zone_type(u, {0.0, 1.0}), ZoneType::k1);   // +y axis -> type 1
  EXPECT_EQ(zone_type(u, {-1.0, 0.0}), ZoneType::k2);  // -x axis -> type 2
  EXPECT_EQ(zone_type(u, {0.0, -1.0}), ZoneType::k4);  // -y axis -> type 4
}

TEST(Quadrant, OppositeZone) {
  EXPECT_EQ(opposite_zone(ZoneType::k1), ZoneType::k3);
  EXPECT_EQ(opposite_zone(ZoneType::k2), ZoneType::k4);
  EXPECT_EQ(opposite_zone(ZoneType::k3), ZoneType::k1);
  EXPECT_EQ(opposite_zone(ZoneType::k4), ZoneType::k2);
}

TEST(Quadrant, ZoneIndexRoundTrip) {
  for (ZoneType t : kAllZoneTypes) {
    EXPECT_EQ(zone_from_index(zone_index(t)), t);
  }
  EXPECT_EQ(zone_index(ZoneType::k1), 0);
  EXPECT_EQ(zone_index(ZoneType::k4), 3);
}

TEST(Quadrant, InQuadrantConsistentWithZoneType) {
  Vec2 u{3.0, -2.0};
  std::vector<Vec2> probes = {
      {4.0, 0.0}, {2.0, 0.0}, {2.0, -3.0}, {4.0, -3.0},
      {3.0, 5.0}, {3.0, -5.0}, {9.0, -2.0}, {-9.0, -2.0}};
  for (Vec2 p : probes) {
    ZoneType t = zone_type(u, p);
    EXPECT_TRUE(in_quadrant(u, p, t));
    for (ZoneType other : kAllZoneTypes) {
      if (other != t) {
        EXPECT_FALSE(in_quadrant(u, p, other));
      }
    }
  }
}

TEST(Quadrant, RequestZoneIsCornerRect) {
  Rect z = request_zone({2.0, 8.0}, {6.0, 3.0});
  EXPECT_EQ(z.lo(), Vec2(2.0, 3.0));
  EXPECT_EQ(z.hi(), Vec2(6.0, 8.0));
  EXPECT_TRUE(z.contains({4.0, 5.0}));
  EXPECT_FALSE(z.contains({1.0, 5.0}));
}

TEST(Quadrant, RequestZoneContainsEndpoints) {
  Vec2 u{1.0, 1.0}, d{5.0, 9.0};
  EXPECT_TRUE(request_zone(u, d).contains(u));
  EXPECT_TRUE(request_zone(u, d).contains(d));
}

TEST(Quadrant, StartBearings) {
  EXPECT_NEAR(quadrant_start_bearing(ZoneType::k1), 0.0, 1e-12);
  EXPECT_NEAR(quadrant_start_bearing(ZoneType::k2), kPi / 2, 1e-12);
  EXPECT_NEAR(quadrant_start_bearing(ZoneType::k3), kPi, 1e-12);
  EXPECT_NEAR(quadrant_start_bearing(ZoneType::k4), 3 * kPi / 2, 1e-12);
}

TEST(Quadrant, DiagonalPointsIntoQuadrant) {
  Vec2 u{0.0, 0.0};
  for (ZoneType t : kAllZoneTypes) {
    Vec2 diag = quadrant_diagonal(t);
    EXPECT_NEAR(diag.norm(), 1.0, 1e-12);
    EXPECT_TRUE(in_quadrant(u, diag, t)) << "type " << static_cast<int>(t);
  }
}

TEST(Quadrant, SignsMatchDiagonal) {
  for (ZoneType t : kAllZoneTypes) {
    Vec2 s = quadrant_signs(t);
    Vec2 d = quadrant_diagonal(t);
    EXPECT_GT(s.x * d.x, 0.0);
    EXPECT_GT(s.y * d.y, 0.0);
  }
}

/// Type-k' relation used by the paper: if d is in Z_k(u,d) seen from u, then
/// u is in Z_{k'}(d,u) seen from d with k' = (k+2) mod 4 — strictly interior
/// placements only (axis-boundary cases differ by the half-open convention).
TEST(Quadrant, OppositePerspective) {
  Vec2 u{0.0, 0.0};
  std::vector<Vec2> ds = {{3.0, 4.0}, {-3.0, 4.0}, {-3.0, -4.0}, {3.0, -4.0}};
  for (Vec2 d : ds) {
    ZoneType k = zone_type(u, d);
    ZoneType back = zone_type(d, u);
    EXPECT_EQ(back, opposite_zone(k));
  }
}

}  // namespace
}  // namespace spr
