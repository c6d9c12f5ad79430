#include "graph/graph_algos.h"

#include <gtest/gtest.h>

#include <limits>

#include "test_helpers.h"

namespace spr {
namespace {

constexpr auto kUnreached = std::numeric_limits<std::size_t>::max();

TEST(GraphAlgos, BfsHopsOnLine) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  auto dist = bfs_hops(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
}

TEST(GraphAlgos, BfsUnreachable) {
  auto g = test::make_graph({{0.0, 0.0}, {100.0, 0.0}}, 10.0);
  auto dist = bfs_hops(g, 0);
  EXPECT_EQ(dist[1], kUnreached);
  EXPECT_FALSE(connected(g, 0, 1));
}

TEST(GraphAlgos, BfsHopsOutOfRangeSourceIsAllUnreachable) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}}, 12.0);
  for (NodeId source : {NodeId{3}, NodeId{100}, kInvalidNode}) {
    auto dist = bfs_hops(g, source);
    ASSERT_EQ(dist.size(), g.size()) << source;
    for (std::size_t d : dist) EXPECT_EQ(d, kUnreachableHops) << source;
  }
}

TEST(GraphAlgos, ConnectedAgreesWithFullBfs) {
  // Components {0}, {2, 3} (split by the dead node 1), {4, 5, 6} and the
  // isolated node 7.
  std::vector<Vec2> positions = {{0.0, 0.0},    {10.0, 0.0},  {20.0, 0.0},
                                 {20.0, 10.0},  {100.0, 0.0}, {110.0, 0.0},
                                 {110.0, 10.0}, {200.0, 200.0}};
  std::vector<bool> alive(positions.size(), true);
  alive[1] = false;
  UnitDiskGraph g(positions, 12.0,
                  Rect::from_bounds({-20.0, -20.0}, {220.0, 220.0}), alive);
  for (NodeId u = 0; u < g.size(); ++u) {
    auto dist = bfs_hops(g, u);
    for (NodeId v = 0; v < g.size(); ++v) {
      EXPECT_EQ(connected(g, u, v), dist[v] != kUnreached)
          << u << " -> " << v;
    }
  }
  EXPECT_FALSE(connected(g, 0, 2));
  EXPECT_TRUE(connected(g, 4, 6));
}

TEST(GraphAlgos, ConnectedOutOfRangeIsFalse) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}}, 12.0);
  const NodeId n = static_cast<NodeId>(g.size());
  EXPECT_FALSE(connected(g, 0, n));
  EXPECT_FALSE(connected(g, n, 0));
  EXPECT_FALSE(connected(g, n, n));
  EXPECT_FALSE(connected(g, kInvalidNode, 0));
  EXPECT_TRUE(connected(g, 0, 2));
}

TEST(GraphAlgos, BfsPathEndpoints) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  auto sp = bfs_path(g, 0, 3);
  ASSERT_EQ(sp.path.size(), 4u);
  EXPECT_EQ(sp.path.front(), 0u);
  EXPECT_EQ(sp.path.back(), 3u);
  EXPECT_EQ(sp.hops(), 3u);
  EXPECT_DOUBLE_EQ(sp.length, 30.0);
}

TEST(GraphAlgos, BfsPathSameNode) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}}, 12.0);
  auto sp = bfs_path(g, 0, 0);
  EXPECT_EQ(sp.path.size(), 1u);
  EXPECT_EQ(sp.hops(), 0u);
}

TEST(GraphAlgos, BfsPathUnreachableEmpty) {
  auto g = test::make_graph({{0.0, 0.0}, {100.0, 0.0}}, 10.0);
  EXPECT_TRUE(bfs_path(g, 0, 1).path.empty());
}

TEST(GraphAlgos, DijkstraPrefersShorterLength) {
  // 0 -> 2 directly (length 20) vs via 1 (two 10.2m hops): direct wins.
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 2.0}, {20.0, 0.0}}, 20.5);
  auto sp = dijkstra_path(g, 0, 2);
  ASSERT_EQ(sp.path.size(), 2u);
  EXPECT_DOUBLE_EQ(sp.length, 20.0);
}

TEST(GraphAlgos, DijkstraVsBfsTradeoff) {
  // BFS minimizes hops, Dijkstra length; on a line they agree.
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  auto bp = bfs_path(g, 0, 3);
  auto dp = dijkstra_path(g, 0, 3);
  EXPECT_EQ(bp.hops(), dp.hops());
  EXPECT_DOUBLE_EQ(bp.length, dp.length);
}

TEST(GraphAlgos, DijkstraLengthNeverBelowEuclidean) {
  Network net = test::random_network(300, 77);
  const auto& g = net.graph();
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    NodeId s = static_cast<NodeId>(rng.next_below(g.size()));
    NodeId d = static_cast<NodeId>(rng.next_below(g.size()));
    auto sp = dijkstra_path(g, s, d);
    if (sp.path.empty()) continue;
    EXPECT_GE(sp.length + 1e-9, distance(g.position(s), g.position(d)));
  }
}

TEST(GraphAlgos, ConnectedComponentsLabels) {
  // Two clusters far apart.
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {200.0, 0.0}, {210.0, 0.0}}, 15.0);
  auto label = connected_components(g);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[2], label[3]);
  EXPECT_NE(label[0], label[2]);
}

TEST(GraphAlgos, LargestComponent) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {200.0, 0.0}, {210.0, 0.0}}, 15.0);
  auto comp = largest_component(g);
  EXPECT_EQ(comp.size(), 3u);
  EXPECT_EQ(comp[0], 0u);
  EXPECT_EQ(comp[2], 2u);
}

TEST(GraphAlgos, BfsOptimalityAgainstDijkstraHops) {
  Network net = test::random_network(250, 13);
  const auto& g = net.graph();
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId s = static_cast<NodeId>(rng.next_below(g.size()));
    NodeId d = static_cast<NodeId>(rng.next_below(g.size()));
    auto bp = bfs_path(g, s, d);
    auto dp = dijkstra_path(g, s, d);
    EXPECT_EQ(bp.path.empty(), dp.path.empty());
    if (bp.path.empty()) continue;
    EXPECT_LE(bp.hops(), dp.hops());          // BFS is hop-optimal
    EXPECT_LE(dp.length, bp.length + 1e-9);   // Dijkstra is length-optimal
  }
}

}  // namespace
}  // namespace spr
