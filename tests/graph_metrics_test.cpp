#include "graph/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph_algos.h"
#include "test_helpers.h"

namespace spr {
namespace {

/// Exact hop diameter of the largest component (max BFS eccentricity):
/// the O(n * (n + E)) oracle the double-sweep estimate is checked against.
std::size_t hop_diameter(const UnitDiskGraph& g) {
  std::size_t diameter = 0;
  for (NodeId u : largest_component(g)) {
    for (std::size_t hops : bfs_hops(g, u)) {
      if (hops != kUnreachableHops) diameter = std::max(diameter, hops);
    }
  }
  return diameter;
}

TEST(GraphMetrics, DegreeStatsOnLine) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  auto stats = degree_stats(g);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_DOUBLE_EQ(stats.mean, 1.5);
  ASSERT_GE(stats.histogram.size(), 3u);
  EXPECT_EQ(stats.histogram[1], 2u);
  EXPECT_EQ(stats.histogram[2], 2u);
}

TEST(GraphMetrics, DegreeStatsEmpty) {
  UnitDiskGraph g({}, 10.0, Rect::from_bounds({0.0, 0.0}, {1.0, 1.0}));
  auto stats = degree_stats(g);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_TRUE(stats.histogram.empty());
}

TEST(GraphMetrics, LargestComponentFraction) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {200.0, 0.0}}, 12.0);
  EXPECT_DOUBLE_EQ(largest_component_fraction(g), 0.75);
}

TEST(GraphMetrics, DiameterOnLine) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}, {40.0, 0.0}}, 12.0);
  EXPECT_EQ(hop_diameter(g), 4u);
  EXPECT_EQ(hop_diameter_estimate(g), 4u);
}

TEST(GraphMetrics, EstimateNeverExceedsExact) {
  for (std::uint64_t seed : {11ull, 23ull, 37ull}) {
    Network net = test::random_network(200, seed);
    std::size_t exact = hop_diameter(net.graph());
    std::size_t estimate = hop_diameter_estimate(net.graph());
    EXPECT_LE(estimate, exact) << "seed " << seed;
    // Double-sweep is nearly always tight on unit-disk graphs.
    EXPECT_GE(estimate + 2, exact) << "seed " << seed;
  }
}

TEST(GraphMetrics, DensityIncreasesDegreeDecreasesDiameter) {
  Network sparse = test::random_network(400, 5);
  Network dense = test::random_network(800, 5);
  EXPECT_LT(degree_stats(sparse.graph()).mean, degree_stats(dense.graph()).mean);
  EXPECT_GE(hop_diameter_estimate(sparse.graph()),
            hop_diameter_estimate(dense.graph()));
}

}  // namespace
}  // namespace spr
