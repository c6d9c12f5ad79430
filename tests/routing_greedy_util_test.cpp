#include "routing/greedy_util.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace spr {
namespace {

TEST(GreedyUtil, PicksClosestToDestination) {
  // u=0 at origin; candidates 1 (closer to dest) and 2 (closer to u).
  auto g = test::make_graph(
      {{0.0, 0.0}, {15.0, 0.0}, {5.0, 0.0}, {50.0, 0.0}}, 20.0);
  NodeId v = greedy_successor(g, 0, g.position(3));
  EXPECT_EQ(v, 1u);
}

TEST(GreedyUtil, LocalMinimumReturnsInvalid) {
  // All neighbors farther from the destination than u.
  auto g = test::make_graph(
      {{0.0, 0.0}, {-10.0, 0.0}, {0.0, -10.0}, {100.0, 0.0}}, 20.0);
  EXPECT_EQ(greedy_successor(g, 0, g.position(3)), kInvalidNode);
}

TEST(GreedyUtil, RequiresStrictProgress) {
  // Neighbor exactly as far as u: not progress.
  auto g = test::make_graph({{0.0, 0.0}, {0.0, 10.0}, {50.0, 5.0}}, 20.0);
  double d_u = distance(g.position(0), g.position(2));
  double d_v = distance(g.position(1), g.position(2));
  ASSERT_NEAR(d_u, d_v, 1e-9);
  EXPECT_EQ(greedy_successor(g, 0, g.position(2)), kInvalidNode);
}

TEST(GreedyUtil, ZoneGreedyRespectsRequestZone) {
  // Neighbor 1 advances but lies outside the request zone (north of d's y).
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 12.0}, {10.0, 2.0}, {40.0, 5.0}}, 21.0);
  Vec2 dest = g.position(3);
  ASSERT_TRUE(request_zone(g.position(0), dest).contains(g.position(2)));
  ASSERT_FALSE(request_zone(g.position(0), dest).contains(g.position(1)));
  EXPECT_EQ(zone_greedy_successor(g, 0, dest), 2u);
}

TEST(GreedyUtil, ZoneGreedyEmptyZone) {
  // Only neighbor is behind u: zone has nobody.
  auto g = test::make_graph({{0.0, 0.0}, {-10.0, 0.0}, {40.0, 0.0}}, 20.0);
  EXPECT_EQ(zone_greedy_successor(g, 0, g.position(2)), kInvalidNode);
}

TEST(GreedyUtil, ZoneGreedyNeverIncreasesDistance) {
  // Inside Z(u,d), every point is at most as far from d as u is.
  Network net = test::random_network(400, 17);
  const auto& g = net.graph();
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId u = static_cast<NodeId>(rng.next_below(g.size()));
    NodeId d = static_cast<NodeId>(rng.next_below(g.size()));
    if (u == d) continue;
    Vec2 dest = g.position(d);
    NodeId v = zone_greedy_successor(g, u, dest);
    if (v == kInvalidNode) continue;
    EXPECT_LE(distance(g.position(v), dest),
              distance(g.position(u), dest) + 1e-9);
  }
}

TEST(GreedyUtil, FilterExcludesCandidates) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {15.0, 0.0}, {10.0, 0.0}, {50.0, 0.0}}, 20.0);
  Vec2 dest = g.position(3);
  EXPECT_EQ(zone_greedy_successor(g, 0, dest), 1u);
  NodeId v = zone_greedy_successor(g, 0, dest,
                                   [](NodeId w) { return w != 1; });
  EXPECT_EQ(v, 2u);
}

TEST(GreedyUtil, DeliversToDestinationWhenNeighbor) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}}, 20.0);
  EXPECT_EQ(greedy_successor(g, 0, g.position(1)), 1u);
}

}  // namespace
}  // namespace spr
