#include "routing/baselines.h"

#include <gtest/gtest.h>

#include "graph/graph_algos.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(Mfr, DeliversOnLine) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  MfrRouter router(g);
  PathResult r = router.route(0, 3);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.hops(), 3u);
}

TEST(Mfr, PicksMostForwardNotClosest) {
  // Candidate 1 is closest to d; candidate 2 projects farther forward.
  auto g = test::make_graph(
      {{0.0, 0.0}, {12.0, 6.0}, {18.0, 9.0}, {100.0, 50.0}}, 21.0);
  MfrRouter router(g);
  PathResult r = router.route(0, 3);
  ASSERT_GE(r.path.size(), 2u);
  EXPECT_EQ(r.path[1], 2u);  // the farther projection wins
}

TEST(Mfr, FailsAtLocalMinimumWithoutRecovery) {
  // Wall: the only neighbors are backwards.
  auto g = test::make_graph(
      {{0.0, 0.0}, {-10.0, 0.0}, {100.0, 0.0}}, 15.0);
  MfrRouter router(g);
  PathResult r = router.route(0, 2);
  EXPECT_FALSE(r.delivered());
  EXPECT_EQ(r.status, RouteStatus::kDeadEnd);
  EXPECT_EQ(r.local_minima, 1u);
}

TEST(Compass, DeliversOnLine) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  CompassRouter router(g);
  PathResult r = router.route(0, 3);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.hops(), 3u);
}

TEST(Compass, PicksSmallestAngularDeviation) {
  // Node 1 deviates ~27 deg, node 2 only ~9 deg though it advances less.
  auto g = test::make_graph(
      {{0.0, 0.0}, {16.0, 8.0}, {10.0, 1.6}, {100.0, 0.0}}, 20.0);
  CompassRouter router(g);
  PathResult r = router.route(0, 3);
  ASSERT_GE(r.path.size(), 2u);
  EXPECT_EQ(r.path[1], 2u);
}

TEST(Compass, StopsInsteadOfCycling) {
  Network net = test::random_network(400, 61, DeployModel::kForbiddenAreas);
  CompassRouter router(net.graph());
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    PathResult r = router.route(s, d);
    // Whatever happens, the walk is simple (visited-set) and terminates.
    std::vector<bool> seen(net.graph().size(), false);
    for (NodeId u : r.path) {
      EXPECT_FALSE(seen[u]) << "compass revisited " << u;
      seen[u] = true;
    }
  }
}

TEST(Flooding, AlwaysDeliversOnConnectedPairs) {
  Network net = test::random_network(400, 71, DeployModel::kForbiddenAreas);
  FloodingRouter router(net.graph());
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    PathResult r = router.route(s, d);
    EXPECT_TRUE(r.delivered());
    // Flooding reports the BFS-optimal path.
    EXPECT_EQ(r.hops(), bfs_path(net.graph(), s, d).hops());
  }
}

TEST(Flooding, FailsAcrossDisconnection) {
  auto g = test::make_graph({{0.0, 0.0}, {100.0, 0.0}}, 10.0);
  FloodingRouter router(g);
  EXPECT_FALSE(router.route(0, 1).delivered());
}

TEST(Baselines, GreedyOnlySchemesFailMoreThanSlgf2) {
  int mfr_fail = 0, compass_fail = 0, slgf2_fail = 0, total = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    MfrRouter mfr(net.graph());
    CompassRouter compass(net.graph());
    auto slgf2 = net.make_router(Scheme::kSlgf2);
    Rng rng(seed ^ 0x4444);
    for (int trial = 0; trial < 8; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      ++total;
      if (!mfr.route(s, d).delivered()) ++mfr_fail;
      if (!compass.route(s, d).delivered()) ++compass_fail;
      if (!slgf2->route(s, d).delivered()) ++slgf2_fail;
    }
  }
  EXPECT_GE(mfr_fail, slgf2_fail);
  EXPECT_GE(compass_fail, slgf2_fail);
  EXPECT_GT(total, 0);
}

}  // namespace
}  // namespace spr
