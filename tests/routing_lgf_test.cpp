#include "routing/lgf.h"

#include <gtest/gtest.h>

#include "graph/graph_algos.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(Lgf, DeliversOnLine) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  LgfRouter router(g);
  PathResult r = router.route(0, 3);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.hops(), 3u);
  EXPECT_DOUBLE_EQ(r.length, 30.0);
  EXPECT_EQ(r.local_minima, 0u);
  EXPECT_EQ(r.perimeter_hops(), 0u);
}

TEST(Lgf, SourceEqualsDestination) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}}, 12.0);
  LgfRouter router(g);
  PathResult r = router.route(0, 0);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.hops(), 0u);
}

TEST(Lgf, DirectNeighborOneHop) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}}, 12.0);
  LgfRouter router(g);
  PathResult r = router.route(0, 1);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.hops(), 1u);
}

TEST(Lgf, DisconnectedFails) {
  auto g = test::make_graph({{0.0, 0.0}, {100.0, 0.0}}, 10.0);
  LgfRouter router(g);
  PathResult r = router.route(0, 1);
  EXPECT_FALSE(r.delivered());
}

TEST(Lgf, PathIsValidWalk) {
  Network net = test::random_network(400, 11, DeployModel::kForbiddenAreas);
  const auto& g = net.graph();
  LgfRouter router(g);
  Rng rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    PathResult r = router.route(s, d);
    ASSERT_GE(r.path.size(), 1u);
    EXPECT_EQ(r.path.front(), s);
    for (std::size_t i = 1; i < r.path.size(); ++i) {
      EXPECT_TRUE(g.are_neighbors(r.path[i - 1], r.path[i]))
          << "hop " << i << " is not an edge";
    }
    if (r.delivered()) {
      EXPECT_EQ(r.path.back(), d);
    }
    EXPECT_EQ(r.hop_phases.size(), r.path.size() - 1);
  }
}

TEST(Lgf, GreedyPhaseStaysInRequestZone) {
  Network net = test::random_network(400, 13);
  const auto& g = net.graph();
  LgfRouter router(g);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    PathResult r = router.route(s, d);
    Vec2 dest = g.position(d);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      if (r.hop_phases[i] != HopPhase::kGreedy) continue;
      // Greedy hops keep the successor inside Z(u, d).
      EXPECT_TRUE(request_zone(g.position(r.path[i]), dest)
                      .contains(g.position(r.path[i + 1])));
    }
  }
}

TEST(Lgf, GreedyHopsMonotonicallyApproach) {
  Network net = test::random_network(400, 17);
  const auto& g = net.graph();
  LgfRouter router(g);
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    PathResult r = router.route(s, d);
    Vec2 dest = g.position(d);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      if (r.hop_phases[i] != HopPhase::kGreedy) continue;
      EXPECT_LE(distance(g.position(r.path[i + 1]), dest),
                distance(g.position(r.path[i]), dest) + 1e-9);
    }
  }
}

TEST(Lgf, PerimeterNeverRevisits) {
  Network net = test::random_network(450, 19, DeployModel::kForbiddenAreas);
  LgfRouter router(net.graph());
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    PathResult r = router.route(s, d);
    // Perimeter successors are always fresh nodes under the untried rule.
    std::vector<bool> seen(net.graph().size(), false);
    seen[r.path[0]] = true;
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      NodeId next = r.path[i + 1];
      if (r.hop_phases[i] == HopPhase::kPerimeter && next != d) {
        EXPECT_FALSE(seen[next]) << "perimeter revisited node " << next;
      }
      seen[next] = true;
    }
  }
}

TEST(Lgf, StuckAtWallDetours) {
  // Flat void wall: the degenerate request zone at equal y forces perimeter.
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  // Find nodes at (50,100) and (150,100).
  NodeId s = kInvalidNode, d = kInvalidNode;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.position(u) == Vec2(50.0, 100.0)) s = u;
    if (g.position(u) == Vec2(150.0, 100.0)) d = u;
  }
  ASSERT_NE(s, kInvalidNode);
  ASSERT_NE(d, kInvalidNode);
  ASSERT_TRUE(connected(g, s, d));
  LgfRouter router(g);
  PathResult r = router.route(s, d);
  EXPECT_TRUE(r.delivered());
  EXPECT_GE(r.local_minima, 1u);  // wall forces at least one perimeter phase
  // The detour is longer than the blocked straight line.
  EXPECT_GT(r.length, 100.0);
}

TEST(Lgf, HighDeliveryOnIdealNetworks) {
  int delivered = 0, total = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed);
    LgfRouter router(net.graph());
    Rng rng(seed);
    for (int trial = 0; trial < 10; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      ++total;
      if (router.route(s, d).delivered()) ++delivered;
    }
  }
  EXPECT_GE(static_cast<double>(delivered) / total, 0.9);
}

}  // namespace
}  // namespace spr
