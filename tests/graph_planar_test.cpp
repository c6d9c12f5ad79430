#include "graph/planar.h"

#include <gtest/gtest.h>

#include "support/planar_oracles.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(Planar, GabrielDropsWitnessedEdge) {
  // 2 sits inside the diameter disc of (0,1): edge 0-1 must go.
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {5.0, 1.0}}, 12.0);
  EXPECT_TRUE(g.are_neighbors(0, 1));
  EXPECT_FALSE(gabriel_keeps_edge(g, 0, 1));
  EXPECT_TRUE(gabriel_keeps_edge(g, 0, 2));
  EXPECT_TRUE(gabriel_keeps_edge(g, 2, 1));
}

TEST(Planar, GabrielKeepsUnwitnessedEdge) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {5.0, 30.0}}, 12.0);
  EXPECT_TRUE(gabriel_keeps_edge(g, 0, 1));
}

TEST(Planar, GabrielOverlayIsPlanar) {
  for (std::uint64_t seed : {11ull, 23ull, 37ull}) {
    Network net = test::random_network(220, seed);
    PlanarOverlay overlay(net.graph());
    EXPECT_TRUE(test::overlay_is_planar(net.graph(), overlay))
        << "seed " << seed;
  }
}

TEST(Planar, GabrielPreservesConnectivity) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(300, seed);
    PlanarOverlay overlay(net.graph());
    EXPECT_TRUE(test::overlay_preserves_connectivity(net.graph(), overlay))
        << "seed " << seed;
  }
}

TEST(Planar, OverlayNeighborsAreGraphNeighbors) {
  Network net = test::random_network(250, 31);
  const auto& g = net.graph();
  PlanarOverlay overlay(g);
  for (NodeId u = 0; u < g.size(); ++u) {
    for (NodeId v : overlay.neighbors(u)) {
      EXPECT_TRUE(g.are_neighbors(u, v));
      EXPECT_TRUE(overlay.are_neighbors(v, u));  // symmetry
    }
  }
  EXPECT_LE(overlay.edge_count(), g.edge_count());
}

TEST(Planar, FewerEdgesThanUdgOnDenseNetworks) {
  Network net = test::random_network(500, 101);
  PlanarOverlay gabriel(net.graph());
  EXPECT_LT(gabriel.edge_count(), net.graph().edge_count());
}

}  // namespace
}  // namespace spr
