#include "graph/unit_disk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "deploy/rng.h"
#include "graph/quadrant_csr.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/task_pool.h"

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

/// Brute-force rows: every alive v != u within range of an alive u, by
/// the grid's own predicate (squared distance against squared range).
std::vector<std::vector<NodeId>> brute_force_rows(
    const std::vector<Vec2>& points, double range,
    const std::vector<bool>& alive) {
  std::vector<std::vector<NodeId>> rows(points.size());
  for (NodeId u = 0; u < points.size(); ++u) {
    if (!alive[u]) continue;
    for (NodeId v = 0; v < points.size(); ++v) {
      if (v != u && alive[v] &&
          distance_sq(points[v], points[u]) <= range * range) {
        rows[u].push_back(v);
      }
    }
  }
  return rows;
}

void expect_rows(const UnitDiskGraph& g,
                 const std::vector<std::vector<NodeId>>& rows,
                 const std::string& what) {
  ASSERT_EQ(g.size(), rows.size()) << what;
  std::size_t offset = 0;
  for (NodeId u = 0; u < g.size(); ++u) {
    ASSERT_EQ(g.neighbor_offset(u), offset) << what << " node " << u;
    auto row = g.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(row.begin(), row.end()), rows[u])
        << what << " node " << u;
    offset += row.size();
  }
  EXPECT_EQ(g.directed_edge_count(), offset) << what;
}

/// Uniform points over a field sized for a mean degree near 15, every
/// seventh node dead; from 256 nodes on, the first 90 crowd into a 5 m
/// square, so their rows outgrow the rank sort and take std::sort.
struct Field {
  std::vector<Vec2> points;
  std::vector<bool> alive;
  Rect bounds;
};

Field random_field(std::size_t n, std::uint64_t seed) {
  Field f;
  const double side = 20.0 * std::sqrt(static_cast<double>(n) / 3.0 + 1.0);
  f.bounds = Rect::from_bounds({0.0, 0.0}, {side, side});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double extent = n >= 256 && i < 90 ? 5.0 : side;
    f.points.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
    f.alive.push_back(i % 7 != 3);
  }
  return f;
}

/// The block row builder against brute force: sizes around the 256-row
/// block (one short, exact, one over, and twice that, where the pool takes
/// over) and 10^4 nodes, with dead nodes, serial and on pools of 1, 2 and
/// 4 workers: offsets and rows equal.
TEST(UnitDisk, BlockBuiltRowsEqualBruteForce) {
  constexpr double kRange = 20.0;
  for (std::size_t n : {0u, 1u, 255u, 256u, 257u, 511u, 512u, 513u, 10000u}) {
    const Field f = random_field(n, 31 + n);
    const auto rows = brute_force_rows(f.points, kRange, f.alive);
    const std::string what = "n=" + std::to_string(n);
    expect_rows(UnitDiskGraph(f.points, kRange, f.bounds, f.alive), rows,
                what + " serial");
    for (int threads : {1, 2, 4}) {
      TaskPool pool(threads);
      expect_rows(UnitDiskGraph(f.points, kRange, f.bounds, f.alive, &pool),
                  rows, what + " pool " + std::to_string(threads));
    }
  }
}

/// with_moves' moved rows come from the same builder: its patch path (a
/// tenth of the nodes move) and its cutover (four fifths move) each equal
/// a fresh build and brute force, serial and pooled, dead nodes included.
TEST(UnitDisk, WithMovesPatchAndCutoverEqualFreshBuild) {
  constexpr double kRange = 20.0;
  const Field f = random_field(10000, 77);
  const UnitDiskGraph base(f.points, kRange, f.bounds, f.alive);
  for (std::size_t stride : {10u, 1u}) {
    Rng rng(stride);
    std::vector<Vec2> moved = f.points;
    for (std::size_t i = 0; i < moved.size(); ++i) {
      if (stride == 1 ? i % 5 == 0 : i % stride != 0) continue;
      moved[i] = {std::clamp(moved[i].x + rng.uniform(-15.0, 15.0), 0.0,
                             f.bounds.hi().x),
                  std::clamp(moved[i].y + rng.uniform(-15.0, 15.0), 0.0,
                             f.bounds.hi().y)};
    }
    const auto rows = brute_force_rows(moved, kRange, f.alive);
    const std::string what = stride == 10 ? "patch" : "cutover";
    const UnitDiskGraph fresh(moved, kRange, f.bounds, f.alive);
    expect_rows(fresh, rows, what + " fresh");
    EdgeDiff diff;
    expect_rows(base.with_moves(moved, &diff), rows, what + " serial");
    EXPECT_EQ(2 * diff.moved_nodes > f.points.size(), stride == 1) << what;
    for (int threads : {1, 2, 4}) {
      TaskPool pool(threads);
      expect_rows(base.with_moves(moved, nullptr, &pool), rows,
                  what + " pool " + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace spr
