#include "graph/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "deploy/deployment.h"
#include "graph/unit_disk.h"

namespace spr {
namespace {

std::vector<NodeId> sorted(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

Deployment random_deployment(int nodes, std::uint64_t seed, DeployModel model) {
  DeploymentConfig config;
  config.node_count = nodes;
  config.model = model;
  Rng rng(seed);
  return deploy(config, rng);
}

TEST(SpatialGrid, QueryRadiusMatchesBruteForce) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (DeployModel model :
         {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
      Deployment d = random_deployment(300, seed, model);
      SpatialGrid grid(d.positions, d.field, d.radio_range);
      Rng rng(seed ^ 0xabc);
      for (double radius : {5.0, d.radio_range, 55.0}) {
        for (int trial = 0; trial < 20; ++trial) {
          NodeId center_id =
              static_cast<NodeId>(rng.next_below(d.positions.size()));
          Vec2 center = d.positions[center_id];
          std::vector<NodeId> fast;
          grid.query_radius(center, radius, center_id, fast);
          std::vector<NodeId> brute;
          for (NodeId v = 0; v < d.positions.size(); ++v) {
            if (v == center_id) continue;
            if (distance(d.positions[v], center) <= radius) brute.push_back(v);
          }
          EXPECT_EQ(sorted(fast), sorted(brute))
              << "seed " << seed << " radius " << radius;
        }
      }
    }
  }
}

/// A 1e-300 cell size (what `spr_cli label --range=1e-300` builds) is
/// finite and positive, so it is accepted: the grid caps its cell count
/// rather than casting ~1e302 columns to int, and both the grid and the
/// unit-disk graph over it still answer exactly.
TEST(SpatialGrid, TinyCellSizeMatchesBruteForce) {
  Deployment d = random_deployment(80, 4, DeployModel::kIdeal);
  for (int i = 0; i < 10; ++i) {
    d.positions.push_back(d.positions[static_cast<std::size_t>(3 * i)]);
  }
  const double tiny = 1e-300;
  SpatialGrid grid(d.positions, d.field, tiny);
  EXPECT_LE(static_cast<double>(grid.cols()) * grid.rows(),
            SpatialGrid::kMaxCells);
  for (double radius : {tiny, d.radio_range}) {
    for (NodeId center_id = 0; center_id < d.positions.size(); ++center_id) {
      const Vec2 center = d.positions[center_id];
      std::vector<NodeId> fast;
      grid.query_radius(center, radius, center_id, fast);
      std::vector<NodeId> brute;
      for (NodeId v = 0; v < d.positions.size(); ++v) {
        if (v != center_id && distance(d.positions[v], center) <= radius) {
          brute.push_back(v);
        }
      }
      EXPECT_EQ(sorted(fast), brute) << "radius " << radius;
    }
  }

  UnitDiskGraph g(d.positions, tiny, d.field);
  std::size_t directed = 0;
  for (NodeId u = 0; u < g.size(); ++u) {
    for (NodeId v = 0; v < g.size(); ++v) {
      if (u == v) continue;
      const bool expected = distance(d.positions[u], d.positions[v]) <= tiny;
      EXPECT_EQ(g.are_neighbors(u, v), expected) << u << "," << v;
      directed += expected ? 1 : 0;
    }
  }
  EXPECT_EQ(g.directed_edge_count(), directed);
  EXPECT_GE(directed, 20u);  // the duplicated positions
}

TEST(SpatialGrid, QueryRadiusKeepsEverythingWithInvalidExclude) {
  Deployment d = random_deployment(200, 5, DeployModel::kIdeal);
  SpatialGrid grid(d.positions, d.field, d.radio_range);
  Vec2 center = d.positions[0];
  std::vector<NodeId> with_self;
  grid.query_radius(center, 10.0, kInvalidNode, with_self);
  EXPECT_TRUE(std::find(with_self.begin(), with_self.end(), NodeId{0}) !=
              with_self.end());
}

TEST(SpatialGrid, QueryRectMatchesBruteForce) {
  for (std::uint64_t seed : {7ull, 8ull}) {
    Deployment d = random_deployment(300, seed, DeployModel::kForbiddenAreas);
    SpatialGrid grid(d.positions, d.field, d.radio_range);
    Rng rng(seed ^ 0x5a);
    for (int trial = 0; trial < 25; ++trial) {
      Vec2 a{d.field.lo().x + rng.next_double() * d.field.width(),
             d.field.lo().y + rng.next_double() * d.field.height()};
      Vec2 b{d.field.lo().x + rng.next_double() * d.field.width(),
             d.field.lo().y + rng.next_double() * d.field.height()};
      Rect query = Rect::from_bounds({std::min(a.x, b.x), std::min(a.y, b.y)},
                                     {std::max(a.x, b.x), std::max(a.y, b.y)});
      std::vector<NodeId> fast;
      grid.query_rect(query, fast);
      std::vector<NodeId> brute;
      for (NodeId v = 0; v < d.positions.size(); ++v) {
        if (query.contains(d.positions[v])) brute.push_back(v);
      }
      EXPECT_EQ(sorted(fast), sorted(brute)) << "seed " << seed;
    }
  }
}

TEST(SpatialGrid, OwnsItsPointCopy) {
  std::vector<Vec2> points = {{1.0, 1.0}, {5.0, 5.0}};
  Rect bounds = Rect::from_bounds({0.0, 0.0}, {10.0, 10.0});
  SpatialGrid grid(points, bounds, 5.0);
  points.clear();  // the grid must not dangle
  std::vector<NodeId> out;
  grid.query_radius({1.0, 1.0}, 1.0, kInvalidNode, out);
  EXPECT_EQ(out, std::vector<NodeId>{0});
  EXPECT_EQ(grid.point_count(), 2u);
}

TEST(UnitDiskGraph, WithFailuresSharesGrid) {
  Deployment d = random_deployment(250, 11, DeployModel::kIdeal);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  UnitDiskGraph degraded = g.with_failures({3, 4, 5});
  EXPECT_EQ(&g.grid(), &degraded.grid());
  // And the chain keeps sharing.
  UnitDiskGraph twice = degraded.with_failures({9});
  EXPECT_EQ(&g.grid(), &twice.grid());
}

TEST(UnitDiskGraph, WithFailuresMatchesFreshBuild) {
  Deployment d = random_deployment(250, 12, DeployModel::kForbiddenAreas);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  std::vector<NodeId> failed = {1, 17, 42, 99, 200};
  UnitDiskGraph reused = g.with_failures(failed);

  std::vector<bool> alive(d.positions.size(), true);
  for (NodeId u : failed) alive[u] = false;
  UnitDiskGraph fresh(d.positions, d.radio_range, d.field, alive);

  ASSERT_EQ(reused.size(), fresh.size());
  EXPECT_EQ(reused.edge_count(), fresh.edge_count());
  for (NodeId u = 0; u < reused.size(); ++u) {
    EXPECT_EQ(reused.alive(u), fresh.alive(u));
    auto a = reused.neighbors(u);
    auto b = fresh.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "node " << u;
  }
}

}  // namespace
}  // namespace spr
