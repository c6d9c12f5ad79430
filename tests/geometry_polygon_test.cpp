#include "geometry/polygon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "deploy/rng.h"
#include "support/deploy_reference.h"

namespace spr {
namespace {

Polygon unit_square() {
  return Polygon({{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}});
}

TEST(Polygon, ContainsInterior) {
  Polygon p = unit_square();
  EXPECT_TRUE(p.contains({0.5, 0.5}));
  EXPECT_FALSE(p.contains({1.5, 0.5}));
  EXPECT_FALSE(p.contains({0.5, -0.5}));
}

TEST(Polygon, BoundaryCountsAsInside) {
  Polygon p = unit_square();
  EXPECT_TRUE(p.contains({0.0, 0.5}));
  EXPECT_TRUE(p.contains({1.0, 1.0}));
  EXPECT_TRUE(p.contains({0.5, 0.0}));
}

TEST(Polygon, SignedAreaOrientation) {
  EXPECT_DOUBLE_EQ(unit_square().signed_area(), 1.0);  // CCW positive
  Polygon cw({{0.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {1.0, 0.0}});
  EXPECT_DOUBLE_EQ(cw.signed_area(), -1.0);
  EXPECT_DOUBLE_EQ(cw.area(), 1.0);
}

TEST(Polygon, Perimeter) {
  EXPECT_DOUBLE_EQ(unit_square().perimeter(), 4.0);
}

TEST(Polygon, ConcaveContainment) {
  // L-shape: the notch must be outside.
  Polygon l({{0.0, 0.0}, {2.0, 0.0}, {2.0, 1.0}, {1.0, 1.0},
             {1.0, 2.0}, {0.0, 2.0}});
  EXPECT_TRUE(l.contains({0.5, 1.5}));
  EXPECT_TRUE(l.contains({1.5, 0.5}));
  EXPECT_FALSE(l.contains({1.5, 1.5}));  // the notch
  EXPECT_DOUBLE_EQ(l.area(), 3.0);
}

TEST(Polygon, FromRect) {
  Polygon p = Polygon::from_rect(Rect::from_corners({1.0, 2.0}, {3.0, 5.0}));
  EXPECT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p.area(), 6.0);
  EXPECT_TRUE(p.contains({2.0, 3.0}));
}

TEST(Polygon, RegularApproximatesDisc) {
  Polygon p = Polygon::regular({5.0, 5.0}, 2.0, 64);
  EXPECT_TRUE(p.contains({5.0, 5.0}));
  EXPECT_TRUE(p.contains({6.5, 5.0}));
  EXPECT_FALSE(p.contains({7.5, 5.0}));
  EXPECT_NEAR(p.area(), 3.14159265 * 4.0, 0.1);
}

TEST(Polygon, BoundingBox) {
  Polygon p({{1.0, 2.0}, {5.0, -1.0}, {3.0, 7.0}});
  Rect box = p.bounding_box();
  EXPECT_EQ(box.lo(), Vec2(1.0, -1.0));
  EXPECT_EQ(box.hi(), Vec2(5.0, 7.0));
}

TEST(Polygon, EmptyAndDegenerate) {
  Polygon empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains({0.0, 0.0}));
  EXPECT_DOUBLE_EQ(empty.area(), 0.0);
  Polygon two({{0.0, 0.0}, {1.0, 0.0}});
  EXPECT_FALSE(two.contains({0.5, 0.0}));
  EXPECT_DOUBLE_EQ(two.area(), 0.0);
}

/// The bounding-box gate changes no answer: Polygon::contains equals the
/// ungated rule (tests/support/deploy_reference.h) on every vertex, on
/// points within and around the 1e-9 boundary tolerance of every edge, on
/// points just inside and just outside the inflated box, on random points
/// around the polygon, on polygons with fewer than 3 vertices and on ones
/// with a NaN or infinite vertex. Some of
/// the probes lie outside the exact box yet within the tolerance of an
/// edge, so a gate margin below the tolerance fails this test.
TEST(Polygon, GatedContainsEqualsUngatedRule) {
  const std::vector<std::vector<Vec2>> shapes = {
      {},
      {{1.0, 1.0}},
      {{0.0, 0.0}, {1.0, 0.0}},
      {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}},
      {{0.0, 0.0}, {2.0, 0.0}, {2.0, 1.0}, {1.0, 1.0}, {1.0, 2.0}, {0.0, 2.0}},
      {{0.0, 0.0}, {3.0, 0.3}, {1.1, 2.7}},
      {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}},  // collinear: zero area
      {{0.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}},  // repeated vertex
      Polygon::regular({50.0, 40.0}, 20.0, 7).vertices(),
      Polygon::from_rect(
          Rect::from_bounds({1e9, 1e9}, {1e9 + 80.0, 1e9 + 50.0}))
          .vertices(),
      Polygon::from_rect(Rect::from_bounds({1e-8, 2e-8}, {3e-8, 3.5e-8}))
          .vertices(),
      // Non-finite vertices: no box to gate by.
      {{0.0, 0.0}, {std::nan(""), 1.0}, {2.0, 2.0}, {0.0, 3.0}},
      {{0.0, 0.0}, {1e300 * 1e300, 1.0}, {2.0, 2.0}},
  };
  const double offsets[] = {0.0,    2.5e-10, 5e-10, 9.99e-10, 1e-9,
                            1.001e-9, 2e-9,  4e-9,  1e-8,     1e-6};
  std::size_t tolerance_only = 0;  // inside only by the boundary tolerance
  Rng rng(17);
  for (const auto& vertices : shapes) {
    const Polygon polygon(vertices);
    std::vector<Vec2> probes(vertices.begin(), vertices.end());
    for (int i = 0; i <= 20; ++i) {
      for (int j = 0; j <= 20; ++j) {
        probes.push_back({0.25 * i - 1.0, 0.25 * j - 1.0});
      }
    }
    const std::size_t n = vertices.size();
    for (std::size_t i = 0; i < n && n >= 2; ++i) {
      const Vec2 a = vertices[i], b = vertices[(i + 1) % n];
      const Vec2 along = b - a;
      const double length = along.norm();
      if (length == 0.0) continue;
      const Vec2 normal{-along.y / length, along.x / length};
      for (double t : {0.0, 1.0 / 3.0, 0.5, 1.0}) {
        const Vec2 base = a + along * t;
        for (double off : offsets) {
          probes.push_back(base + normal * off);
          probes.push_back(base - normal * off);
        }
      }
    }
    if (n > 0) {
      // Around the gate: the margin polygon.cpp documents, and the
      // neighbouring doubles of each inflated side.
      const Rect box = polygon.bounding_box();
      double magnitude = 0.0;
      for (Vec2 v : vertices) {
        magnitude = std::max({magnitude, std::abs(v.x), std::abs(v.y)});
      }
      const double margin = 4.0 * Polygon::kBoundaryTolerance +
                            magnitude * std::ldexp(1.0, -46);
      const Rect gate = box.inflated(margin);
      const double inf = std::numeric_limits<double>::infinity();
      auto around_gate = [inf](double v) {
        return std::vector<double>{std::nextafter(v, -inf), v,
                                   std::nextafter(v, inf)};
      };
      const double xs[] = {box.lo().x, box.center().x, box.hi().x};
      const double ys[] = {box.lo().y, box.center().y, box.hi().y};
      for (double x : {gate.lo().x, gate.hi().x}) {
        for (double y : ys) {
          for (double px : around_gate(x)) probes.push_back({px, y});
        }
      }
      for (double y : {gate.lo().y, gate.hi().y}) {
        for (double x : xs) {
          for (double py : around_gate(y)) probes.push_back({x, py});
        }
      }
      const Rect around =
          box.inflated(0.1 * std::max(box.width(), box.height()) + 1e-8);
      for (int k = 0; k < 2000; ++k) {
        probes.push_back({rng.uniform(around.lo().x, around.hi().x),
                          rng.uniform(around.lo().y, around.hi().y)});
      }
    }
    for (Vec2 p : probes) {
      const bool want = test::polygon_contains_ungated(vertices, p);
      EXPECT_EQ(polygon.contains(p), want)
          << "polygon of " << n << " vertices, probe (" << p.x << ", " << p.y
          << ")";
      if (want && !polygon.bounding_box().contains(p)) ++tolerance_only;
    }
  }
  EXPECT_GT(tolerance_only, 0u);
}

}  // namespace
}  // namespace spr
