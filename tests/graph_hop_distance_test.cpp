/// \file graph_hop_distance_test.cpp
/// The bidirectional hop-distance search (`hop_distance`) and its pooled
/// batch (`hop_distances`) against the one-directional `bfs_hops`: every
/// target from several sources, over random, degenerate and disconnected
/// geometry, dead endpoints, reused scratch, and pools of 1/2/4 workers.

#include "graph/graph_algos.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "deploy/deployment.h"
#include "deploy/rng.h"
#include "test_helpers.h"
#include "util/task_pool.h"

namespace spr {
namespace {

/// Every target from `sources` (ids past the graph included, as probes of
/// the range guard) through one shared scratch.
void expect_matches_bfs(const UnitDiskGraph& g,
                        const std::vector<NodeId>& sources,
                        HopSearchScratch& scratch) {
  for (NodeId s : sources) {
    if (s >= g.size()) continue;
    const std::vector<std::size_t> want = bfs_hops(g, s);
    for (NodeId t = 0; t < g.size(); ++t) {
      ASSERT_EQ(hop_distance(g, s, t, scratch), want[t])
          << "source " << s << " target " << t << " of " << g.size();
    }
  }
}

void expect_matches_bfs(const UnitDiskGraph& g,
                        const std::vector<NodeId>& sources) {
  HopSearchScratch scratch;
  expect_matches_bfs(g, sources, scratch);
}

/// A few sources spread over the id range.
std::vector<NodeId> spread_sources(const UnitDiskGraph& g) {
  std::vector<NodeId> out;
  for (std::size_t k = 0; k < 5; ++k) {
    out.push_back(static_cast<NodeId>((g.size() * (2 * k + 1)) / 10));
  }
  return out;
}

/// An ideal-model field whose side grows with sqrt(n / 600), holding the
/// paper's mean degree as the node count grows.
UnitDiskGraph scaled_ideal_graph(int n, std::uint64_t seed) {
  DeploymentConfig config;
  config.node_count = n;
  const double scale = std::sqrt(static_cast<double>(n) / 600.0);
  config.field = Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
  Rng rng(seed);
  Deployment d = deploy(config, rng);
  return UnitDiskGraph(d.positions, d.radio_range, d.field);
}

std::vector<Vec2> lattice(int cols, int rows, double spacing, Vec2 origin) {
  std::vector<Vec2> out;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      out.push_back({origin.x + spacing * c, origin.y + spacing * r});
    }
  }
  return out;
}

TEST(HopDistance, MatchesBfsOnRandomForbiddenAreaFields) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(600, seed, DeployModel::kForbiddenAreas);
    expect_matches_bfs(net.graph(), spread_sources(net.graph()));
  }
}

TEST(HopDistance, MatchesBfsOnScaledIdealFields) {
  for (std::uint64_t seed : {3u, 5u}) {
    UnitDiskGraph g = scaled_ideal_graph(2400, seed);
    expect_matches_bfs(g, spread_sources(g));
  }
}

TEST(HopDistance, MatchesBfsOnLatticesRowsAndCorridors) {
  // A 4-neighbour lattice (diagonals 21.2 > range 20) and an 8-neighbour
  // one: many equal-length shortest paths, frontiers of equal size.
  UnitDiskGraph four = test::make_graph(lattice(17, 13, 15.0, {0.0, 0.0}));
  expect_matches_bfs(four, spread_sources(four));
  UnitDiskGraph eight = test::make_graph(lattice(15, 15, 10.0, {0.0, 0.0}));
  expect_matches_bfs(eight, spread_sources(eight));

  // Collinear rows: a path graph, where every hop count is an id gap.
  UnitDiskGraph row = test::make_graph(lattice(60, 1, 19.0, {0.0, 0.0}));
  expect_matches_bfs(row, {0, 1, 30, 59});
  HopSearchScratch scratch;
  EXPECT_EQ(hop_distance(row, 0, 59, scratch), 59u);
  EXPECT_EQ(hop_distance(row, 59, 0, scratch), 59u);
  EXPECT_EQ(hop_distance(row, 10, 11, scratch), 1u);

  // A serpentine corridor: a 4-neighbour lattice whose every other row is
  // a wall with one gap at alternating ends, so the balls fold back on
  // themselves and the euclidean direction misleads.
  std::vector<Vec2> maze;
  const int cols = 14;
  for (int r = 0; r < 15; ++r) {
    for (int c = 0; c < cols; ++c) {
      const bool wall = r % 2 == 1;
      const int gap = (r / 2) % 2 == 0 ? cols - 1 : 0;
      if (!wall || c == gap) maze.push_back({15.0 * c, 15.0 * r});
    }
  }
  UnitDiskGraph corridor = test::make_graph(maze);
  expect_matches_bfs(corridor, spread_sources(corridor));
  expect_matches_bfs(corridor, {0, static_cast<NodeId>(corridor.size() - 1)});
}

TEST(HopDistance, DisconnectedComponentsAreUnreachable) {
  std::vector<Vec2> positions = lattice(8, 8, 12.0, {0.0, 0.0});
  const NodeId first_size = static_cast<NodeId>(positions.size());
  for (Vec2 p : lattice(5, 9, 12.0, {400.0, 0.0})) positions.push_back(p);
  UnitDiskGraph g = test::make_graph(positions);
  expect_matches_bfs(g, {0, 17, first_size, first_size + 20});
  HopSearchScratch scratch;
  EXPECT_EQ(hop_distance(g, 0, first_size, scratch), kUnreachableHops);
  EXPECT_EQ(hop_distance(g, first_size + 3, 5, scratch), kUnreachableHops);
}

TEST(HopDistance, EndpointsKilledByFailuresAreUnreachable) {
  Network net = test::random_network(600, 41, DeployModel::kForbiddenAreas);
  const UnitDiskGraph& g = net.graph();
  std::vector<NodeId> sources = spread_sources(g);
  // Kill two of the sources and a band of other nodes.
  std::vector<NodeId> failed = {sources[1], sources[3]};
  for (NodeId u = 7; u < g.size(); u += 29) failed.push_back(u);
  UnitDiskGraph degraded = g.with_failures(failed);
  expect_matches_bfs(degraded, sources);
  expect_matches_bfs(degraded, {7, 36});

  HopSearchScratch scratch;
  EXPECT_EQ(hop_distance(degraded, sources[1], sources[2], scratch),
            kUnreachableHops);
  EXPECT_EQ(hop_distance(degraded, sources[2], sources[3], scratch),
            kUnreachableHops);
  // A dead node is still zero hops from itself, as bfs_hops says.
  EXPECT_EQ(hop_distance(degraded, sources[1], sources[1], scratch), 0u);
}

TEST(HopDistance, SameNodeAndOutOfRangeIds) {
  UnitDiskGraph g = test::make_graph(lattice(6, 6, 12.0, {0.0, 0.0}));
  const NodeId n = static_cast<NodeId>(g.size());
  HopSearchScratch scratch;
  for (NodeId u = 0; u < n; ++u) EXPECT_EQ(hop_distance(g, u, u, scratch), 0u);
  EXPECT_EQ(hop_distance(g, n, 0, scratch), kUnreachableHops);
  EXPECT_EQ(hop_distance(g, 0, n, scratch), kUnreachableHops);
  EXPECT_EQ(hop_distance(g, n + 5, n + 5, scratch), kUnreachableHops);
  EXPECT_EQ(hop_distance(g, kInvalidNode, 3, scratch), kUnreachableHops);
  EXPECT_EQ(hop_distance(g, 3, kInvalidNode, scratch), kUnreachableHops);

  UnitDiskGraph empty = test::make_graph({});
  EXPECT_EQ(hop_distance(empty, 0, 0, scratch), kUnreachableHops);
  // The range guards leave the scratch usable.
  expect_matches_bfs(g, {0, 20}, scratch);
}

TEST(HopDistance, OneScratchServesGraphsOfDifferentSizes) {
  Network big = test::random_network(900, 13, DeployModel::kForbiddenAreas);
  UnitDiskGraph small = test::make_graph(lattice(7, 5, 15.0, {0.0, 0.0}));
  Network medium = test::random_network(400, 17);
  HopSearchScratch scratch;
  expect_matches_bfs(small, spread_sources(small), scratch);
  expect_matches_bfs(big.graph(), spread_sources(big.graph()), scratch);
  expect_matches_bfs(small, spread_sources(small), scratch);
  expect_matches_bfs(medium.graph(), spread_sources(medium.graph()), scratch);
  expect_matches_bfs(big.graph(), {3, 450}, scratch);
}

TEST(HopDistances, PooledEqualsSerialAndPerPair) {
  Network net = test::random_network(1200, 29, DeployModel::kForbiddenAreas);
  const UnitDiskGraph& g = net.graph();
  const NodeId n = static_cast<NodeId>(g.size());
  Rng rng(29);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 97; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.next_below(n)),
                       static_cast<NodeId>(rng.next_below(n)));
  }
  pairs.emplace_back(5, 5);
  pairs.emplace_back(n + 1, 0);
  pairs.emplace_back(0, kInvalidNode);

  std::vector<std::size_t> serial = hop_distances(g, pairs);
  ASSERT_EQ(serial.size(), pairs.size());
  HopSearchScratch scratch;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    EXPECT_EQ(serial[i], hop_distance(g, s, t, scratch)) << "pair " << i;
    if (s < n && t < n) {
      EXPECT_EQ(serial[i], bfs_hops(g, s)[t]) << "pair " << i;
    }
  }
  for (int workers : {1, 2, 4}) {
    TaskPool pool(workers);
    EXPECT_EQ(hop_distances(g, pairs, &pool), serial) << workers << " workers";
  }
  EXPECT_TRUE(hop_distances(g, {}).empty());
}

}  // namespace
}  // namespace spr
