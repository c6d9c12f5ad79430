#include "graph/unit_disk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "deploy/rng.h"
#include "graph/quadrant_csr.h"
#include "test_helpers.h"
#include "util/check.h"

namespace spr {
namespace {

TEST(UnitDisk, EdgeIffWithinRange) {
  auto g = test::make_graph({{0.0, 0.0}, {15.0, 0.0}, {40.0, 0.0}}, 20.0);
  EXPECT_TRUE(g.are_neighbors(0, 1));
  EXPECT_TRUE(g.are_neighbors(1, 0));
  EXPECT_FALSE(g.are_neighbors(0, 2));
  EXPECT_FALSE(g.are_neighbors(1, 2));  // 25m apart
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(UnitDisk, RangeBoundaryIsInclusive) {
  auto g = test::make_graph({{0.0, 0.0}, {20.0, 0.0}}, 20.0);
  EXPECT_TRUE(g.are_neighbors(0, 1));
}

TEST(UnitDisk, NeighborsSortedAndSymmetric) {
  Rng rng(5);
  std::vector<Vec2> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  auto g = test::make_graph(pts, 20.0);
  for (NodeId u = 0; u < g.size(); ++u) {
    auto nbrs = g.neighbors(u);
    for (std::size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
    for (NodeId v : nbrs) {
      EXPECT_NE(v, u);
      EXPECT_TRUE(g.are_neighbors(v, u));
      EXPECT_LE(distance(g.position(u), g.position(v)), g.range() + 1e-9);
    }
  }
}

TEST(UnitDisk, MatchesBruteForce) {
  Rng rng(9);
  std::vector<Vec2> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back({rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)});
  }
  auto g = test::make_graph(pts, 15.0);
  for (NodeId u = 0; u < g.size(); ++u) {
    for (NodeId v = 0; v < g.size(); ++v) {
      if (u == v) continue;
      bool expected = distance(pts[u], pts[v]) <= 15.0;
      EXPECT_EQ(g.are_neighbors(u, v), expected) << u << "," << v;
    }
  }
}

TEST(UnitDisk, DegreeAndAverageDegree) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}}, 12.0);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 4.0 / 3.0);
}

TEST(UnitDisk, DeadNodesHaveNoEdges) {
  std::vector<Vec2> pts = {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}};
  Rect bounds = Rect::from_bounds({-20.0, -20.0}, {40.0, 20.0});
  UnitDiskGraph g(pts, 12.0, bounds, {true, false, true});
  EXPECT_FALSE(g.alive(1));
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_FALSE(g.are_neighbors(0, 1));
  EXPECT_FALSE(g.are_neighbors(2, 1));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(UnitDisk, WithFailuresRemovesEdges) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}}, 12.0);
  auto g2 = g.with_failures({1});
  EXPECT_TRUE(g.are_neighbors(0, 1));   // original untouched
  EXPECT_FALSE(g2.are_neighbors(0, 1));
  EXPECT_FALSE(g2.alive(1));
  EXPECT_TRUE(g2.alive(0));
  EXPECT_EQ(g2.position(1), Vec2(10.0, 0.0));  // position retained
}

/// `patched` equals a fresh build over its positions and the expected
/// aliveness `alive`: liveness, CSR offsets, adjacency rows and quadrant
/// rows. A graph whose quadrant view is not built yet stays that way (its
/// rows are bucketed on the side).
void expect_equals_fresh_build(const UnitDiskGraph& patched,
                               const std::vector<bool>& alive) {
  UnitDiskGraph fresh(patched.positions(), patched.range(), patched.bounds(),
                      alive);
  ASSERT_EQ(patched.size(), fresh.size());
  ASSERT_EQ(patched.directed_edge_count(), fresh.directed_edge_count());
  for (NodeId u = 0; u < patched.size(); ++u) {
    ASSERT_EQ(patched.alive(u), alive[u]) << u;
  }
  for (NodeId u = 0; u <= patched.size(); ++u) {
    ASSERT_EQ(patched.neighbor_offset(u), fresh.neighbor_offset(u)) << u;
  }
  for (NodeId u = 0; u < patched.size(); ++u) {
    auto a = patched.neighbors(u);
    auto b = fresh.neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << u;
  }
  if (patched.has_zones()) {
    EXPECT_TRUE(patched.zones() == fresh.zones());
  } else {
    EXPECT_TRUE(QuadrantZones::build(patched) == fresh.zones());
  }
}

/// A chain of patched failure waves stays bit-identical to fresh builds,
/// whether or not the parent had built its quadrant view (patched vs lazy
/// zones). Waves repeat ids, re-kill dead nodes and pass out-of-range ids.
TEST(UnitDisk, PatchedFailureChainEqualsFreshBuild) {
  for (bool warm_zones : {true, false}) {
    Network net =
        test::random_network(600, warm_zones ? 6 : 7, DeployModel::kForbiddenAreas);
    UnitDiskGraph current = net.graph();
    if (warm_zones) current.zones();
    std::vector<bool> alive(current.size(), true);
    Rng rng(warm_zones ? 31 : 32);
    NodeId last_casualty = kInvalidNode;
    for (int wave = 0; wave < 4; ++wave) {
      std::vector<NodeId> failed;
      for (int k = 0; k < 25; ++k) {
        failed.push_back(static_cast<NodeId>(rng.next_below(current.size())));
      }
      failed.push_back(failed.front());  // duplicate id
      if (last_casualty != kInvalidNode) failed.push_back(last_casualty);
      last_casualty = failed.front();
      failed.push_back(static_cast<NodeId>(current.size() + 5));  // ignored
      for (NodeId u : failed) {
        if (u < alive.size()) alive[u] = false;
      }
      current = current.with_failures(failed);
      EXPECT_EQ(current.has_zones(), warm_zones);
      expect_equals_fresh_build(current, alive);
    }
  }
}

TEST(UnitDisk, EmptyGraph) {
  UnitDiskGraph g({}, 10.0, Rect::from_bounds({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(UnitDisk, SingleNode) {
  auto g = test::make_graph({{5.0, 5.0}}, 10.0);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(UnitDisk, CoincidentNodesAreNeighbors) {
  auto g = test::make_graph({{5.0, 5.0}, {5.0, 5.0}}, 10.0);
  EXPECT_TRUE(g.are_neighbors(0, 1));
}

TEST(UnitDisk, NonFinitePositionIsRejected) {
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect field = Rect::from_bounds({0.0, 0.0}, {100.0, 100.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (Vec2 bad : {Vec2{nan, 5.0}, Vec2{5.0, nan}, Vec2{inf, 5.0},
                   Vec2{5.0, -inf}}) {
    std::vector<Vec2> pts{{1.0, 1.0}, bad, {3.0, 3.0}};
    EXPECT_THROW(UnitDiskGraph(pts, 20.0, field), CheckError)
        << bad.x << "," << bad.y;
    EXPECT_THROW(UnitDiskGraph(pts, 20.0, field, {true, true, true}),
                 CheckError)
        << bad.x << "," << bad.y;
  }
}

/// The range half of the constructor contract, enforced through the spatial
/// grid's cell-size check.
TEST(UnitDisk, NonPositiveOrNonFiniteRangeIsRejected) {
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect field = Rect::from_bounds({0.0, 0.0}, {100.0, 100.0});
  const std::vector<Vec2> pts{{1.0, 1.0}, {3.0, 3.0}};
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(UnitDiskGraph(pts, bad, field), CheckError) << bad;
    EXPECT_THROW(UnitDiskGraph(pts, bad, field, {true, true}), CheckError)
        << bad;
  }
}

TEST(UnitDisk, WithMovesRejectsNonFiniteMovedPosition) {
  ScopedCheckHandler guard(&throwing_check_handler);
  auto g = test::make_graph({{1.0, 1.0}, {5.0, 5.0}, {9.0, 9.0}}, 20.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // One node moved (the patch path) and every node moved (the rebuild).
  std::vector<Vec2> one = g.positions();
  one[1].x = nan;
  EXPECT_THROW(g.with_moves(one), CheckError);
  std::vector<Vec2> all{{2.0, 2.0}, {6.0, nan}, {8.0, 8.0}};
  EXPECT_THROW(g.with_moves(all), CheckError);
}

}  // namespace
}  // namespace spr
