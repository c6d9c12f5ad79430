/// \file graph_oracle_test.cpp
/// The stretch oracles: the per-pair `bfs_path` / `dijkstra_path` searches
/// against brute-force distances, and `OracleBatch` (bidirectional BFS +
/// A*) against those per-pair searches, bit for bit, on the sweep's fields
/// and on hostile geometry (lattices and collinear rows far from the
/// origin, duplicate points, disconnected pairs, out-of-range ids).

#include "graph/graph_algos.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "deploy/rng.h"
#include "test_helpers.h"

namespace spr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Heap-free O(n^2) Dijkstra distances — an implementation independent of
/// the search under test.
std::vector<double> brute_force_distances(const UnitDiskGraph& g,
                                          NodeId source) {
  std::vector<double> dist(g.size(), kInf);
  std::vector<bool> done(g.size(), false);
  dist[source] = 0.0;
  for (std::size_t round = 0; round < g.size(); ++round) {
    NodeId u = kInvalidNode;
    for (NodeId v = 0; v < g.size(); ++v) {
      if (!done[v] && dist[v] < kInf &&
          (u == kInvalidNode || dist[v] < dist[u])) {
        u = v;
      }
    }
    if (u == kInvalidNode) break;
    done[u] = true;
    for (NodeId v : g.neighbors(u)) {
      double nd = dist[u] + distance(g.position(u), g.position(v));
      if (nd < dist[v]) dist[v] = nd;
    }
  }
  return dist;
}

/// A path must walk existing edges from s to d and report its own length.
void expect_valid_path(const UnitDiskGraph& g, const ShortestPath& sp,
                       NodeId s, NodeId d) {
  ASSERT_FALSE(sp.path.empty());
  EXPECT_EQ(sp.path.front(), s);
  EXPECT_EQ(sp.path.back(), d);
  double length = 0.0;
  for (std::size_t i = 1; i < sp.path.size(); ++i) {
    EXPECT_TRUE(g.are_neighbors(sp.path[i - 1], sp.path[i]));
    length += distance(g.position(sp.path[i - 1]), g.position(sp.path[i]));
  }
  EXPECT_DOUBLE_EQ(sp.length, length);
}

UnitDiskGraph holey_graph(std::uint64_t seed) {
  Deployment d = test::dense_grid_deployment(200, seed);
  return UnitDiskGraph(d.positions, d.radio_range, d.field);
}

TEST(ShortestPath, BfsPathMatchesBruteForceHops) {
  for (std::uint64_t seed : test::property_seeds()) {
    UnitDiskGraph g = holey_graph(seed);
    NodeId source = static_cast<NodeId>(seed % g.size());
    auto hops = bfs_hops(g, source);  // independent implementation
    for (NodeId t = 0; t < g.size(); ++t) {
      ShortestPath sp = bfs_path(g, source, t);
      if (hops[t] == kUnreachableHops) {
        EXPECT_TRUE(sp.path.empty());
        continue;
      }
      EXPECT_EQ(sp.hops(), hops[t]) << "target " << t;
      expect_valid_path(g, sp, source, t);
    }
  }
}

TEST(ShortestPath, DijkstraPathMatchesBruteForceDistances) {
  for (std::uint64_t seed : test::property_seeds()) {
    UnitDiskGraph g = holey_graph(seed);
    NodeId source = static_cast<NodeId>((seed * 7) % g.size());
    auto dist = brute_force_distances(g, source);
    for (NodeId t = 0; t < g.size(); ++t) {
      ShortestPath sp = dijkstra_path(g, source, t);
      if (dist[t] == kInf) {
        EXPECT_TRUE(sp.path.empty());
        continue;
      }
      EXPECT_NEAR(sp.length, dist[t], 1e-9) << "target " << t;
      expect_valid_path(g, sp, source, t);
    }
  }
}

/// The differential check: every pair's `OracleBatch` hop count equals
/// `bfs_path(...).hops()`, and its length has the bits of
/// `dijkstra_path(...).length` (both 0 when unreachable or out of range).
/// Reports the first few mismatches and returns how many pairs differ.
std::size_t oracle_mismatches(
    const UnitDiskGraph& g,
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const std::string& what) {
  OracleBatch batch(g, pairs);
  EXPECT_EQ(batch.size(), pairs.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < pairs.size() && i < batch.size(); ++i) {
    auto [s, d] = pairs[i];
    const std::size_t hops = bfs_path(g, s, d).hops();
    const double length = dijkstra_path(g, s, d).length;
    if (batch.hop_optimal(i) == hops &&
        std::bit_cast<std::uint64_t>(batch.length_optimal(i)) ==
            std::bit_cast<std::uint64_t>(length)) {
      continue;
    }
    if (++mismatches <= 5) {
      ADD_FAILURE() << what << ": pair (" << s << ", " << d << ") hops "
                    << batch.hop_optimal(i) << " vs " << hops << ", length "
                    << batch.length_optimal(i) << " vs " << length;
    }
  }
  return mismatches;
}

/// A unit-disk graph whose bounds hug its points, wherever they lie.
UnitDiskGraph tight_graph(const std::vector<Vec2>& points, double range) {
  Rect bounds = Rect::from_bounds(points.front(), points.front());
  for (Vec2 p : points) bounds = bounds.expanded_to(p);
  return UnitDiskGraph(points, range, bounds.inflated(range));
}

std::vector<std::pair<NodeId, NodeId>> all_pairs(const UnitDiskGraph& g) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s = 0; s < g.size(); ++s) {
    for (NodeId d = 0; d < g.size(); ++d) pairs.emplace_back(s, d);
  }
  return pairs;
}

TEST(OracleBatch, MatchesPerPairSearchesOnSweepCells) {
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    SweepConfig config;
    config.model = model;
    config.pairs_per_network = 20;
    for (int n : {400, 800}) {
      for (int net_index = 0; net_index < 3; ++net_index) {
        NetworkConfig nc;
        nc.deployment = config.deployment_template;
        nc.deployment.model = model;
        nc.deployment.node_count = n;
        nc.seed = sweep_cell_seed(config, n, net_index);
        Network network = Network::create(nc);
        const UnitDiskGraph& g = network.graph();
        // The cell's own connected interior pairs, then arbitrary pairs
        // (boundary nodes, other components, self-pairs).
        auto pairs = sweep_cell_pairs(config, network, n, net_index);
        ASSERT_FALSE(pairs.empty());
        Rng rng(static_cast<std::uint64_t>(n * 10 + net_index));
        for (int i = 0; i < 40; ++i) {
          pairs.emplace_back(static_cast<NodeId>(rng.next_below(g.size())),
                             static_cast<NodeId>(rng.next_below(g.size())));
        }
        pairs.emplace_back(pairs[0].first, pairs[0].first);
        EXPECT_EQ(oracle_mismatches(
                      g, pairs,
                      std::string(model == DeployModel::kIdeal ? "IA" : "FA") +
                          " n=" + std::to_string(n) + " net " +
                          std::to_string(net_index)),
                  0u);
      }
    }
  }
}

TEST(OracleBatch, MatchesPerPairSearchesFarFromOrigin) {
  // Equal-length alternatives everywhere: an 8-connected lattice, and
  // collinear rows where every forward path has the same exact length but
  // a different rounded sum. Far offsets round the coordinates themselves.
  for (double offset : {0.0, 1e3, 1e6, 1e9}) {
    std::vector<Vec2> lattice;
    for (int y = 0; y < 10; ++y) {
      for (int x = 0; x < 10; ++x) {
        lattice.push_back({offset + 0.7 * x, offset + 0.7 * y});
      }
    }
    UnitDiskGraph lattice_graph = tight_graph(lattice, 1.0);
    EXPECT_EQ(oracle_mismatches(lattice_graph, all_pairs(lattice_graph),
                                "lattice at " + std::to_string(offset)),
              0u);

    std::vector<Vec2> row, diagonal;
    for (int i = 0; i < 60; ++i) {
      row.push_back({offset + 0.3 * i, offset});
      diagonal.push_back({offset + 0.3 * i, offset + 0.3 * i});
    }
    UnitDiskGraph row_graph = tight_graph(row, 1.0);
    EXPECT_EQ(oracle_mismatches(row_graph, all_pairs(row_graph),
                                "row at " + std::to_string(offset)),
              0u);
    UnitDiskGraph diagonal_graph = tight_graph(diagonal, 1.0);
    EXPECT_EQ(oracle_mismatches(diagonal_graph, all_pairs(diagonal_graph),
                                "diagonal at " + std::to_string(offset)),
              0u);
  }
}

TEST(OracleBatch, MatchesPerPairSearchesWithDuplicatePoints) {
  // Zero-length edges: every third point is placed twice more.
  Rng rng(31);
  std::vector<Vec2> points;
  for (int i = 0; i < 80; ++i) {
    Vec2 p{10.0 * rng.next_double(), 10.0 * rng.next_double()};
    points.push_back(p);
    if (i % 3 == 0) {
      points.push_back(p);
      points.push_back(p);
    }
  }
  UnitDiskGraph g = test::make_graph(points, 2.0);
  EXPECT_EQ(oracle_mismatches(g, all_pairs(g), "duplicates"), 0u);
}

TEST(OracleBatch, DisconnectedAndInvalidPairsYieldZeroOptima) {
  // Two components: {0, 1, 2} and {3, 4}.
  UnitDiskGraph g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {100.0, 0.0}, {110.0, 0.0}},
      12.0);
  const NodeId n = static_cast<NodeId>(g.size());
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 4}, {kInvalidNode, 0}, {0, kInvalidNode}, {n, n}, {0, n}, {0, 2}};
  OracleBatch batch(g, pairs);
  for (std::size_t i = 0; i + 1 < pairs.size(); ++i) {
    EXPECT_EQ(batch.hop_optimal(i), 0u) << "pair " << i;
    EXPECT_EQ(batch.length_optimal(i), 0.0) << "pair " << i;
  }
  EXPECT_EQ(batch.hop_optimal(5), 2u);
  EXPECT_EQ(batch.length_optimal(5), 20.0);
  EXPECT_EQ(oracle_mismatches(g, pairs, "disconnected and invalid"), 0u);
  // The per-pair wrappers degrade the same way.
  EXPECT_TRUE(bfs_path(g, kInvalidNode, 0).path.empty());
  EXPECT_TRUE(dijkstra_path(g, 0, kInvalidNode).path.empty());
  EXPECT_TRUE(dijkstra_path(g, 0, 4).path.empty());
}

TEST(OracleBatch, EmptySpan) {
  UnitDiskGraph g = holey_graph(17);
  OracleBatch batch(g, {});
  EXPECT_EQ(batch.size(), 0u);
}

}  // namespace
}  // namespace spr
