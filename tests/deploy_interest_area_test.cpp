#include "deploy/interest_area.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "deploy/rng.h"
#include "geometry/hull.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(InterestArea, HullCornersAreEdgeNodes) {
  auto g = test::make_graph({{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0},
                             {0.0, 100.0}, {50.0, 50.0}}, 20.0);
  InterestArea area(g, 5.0);
  EXPECT_TRUE(area.is_edge_node(0));
  EXPECT_TRUE(area.is_edge_node(1));
  EXPECT_TRUE(area.is_edge_node(2));
  EXPECT_TRUE(area.is_edge_node(3));
  EXPECT_FALSE(area.is_edge_node(4));
}

TEST(InterestArea, BandWidensEdgeSet) {
  Deployment d = test::dense_grid_deployment(400);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  InterestArea narrow(g, 1.0);
  InterestArea wide(g, 30.0);
  EXPECT_LT(narrow.edge_count(), wide.edge_count());
  // Widening the band can only shrink the interior.
  EXPECT_GT(narrow.interior_nodes().size(), wide.interior_nodes().size());
}

TEST(InterestArea, InteriorAndEdgePartition) {
  Network net = test::random_network(400, 21);
  const auto& area = net.interest_area();
  const auto& g = net.graph();
  std::size_t interior = area.interior_nodes().size();
  EXPECT_EQ(interior + area.edge_count(), g.size());
  for (NodeId u : area.interior_nodes()) EXPECT_FALSE(area.is_edge_node(u));
}

TEST(InterestArea, InteriorNodesAwayFromHull) {
  Network net = test::random_network(400, 22);
  const auto& area = net.interest_area();
  const auto& g = net.graph();
  for (NodeId u : area.interior_nodes()) {
    EXPECT_GT(distance_to_hull_boundary(area.hull(), g.position(u)),
              g.range());
  }
}

TEST(InterestArea, HullIsConvexAndCoversNodes) {
  Network net = test::random_network(300, 23);
  Polygon hull(net.interest_area().hull());
  for (Vec2 p : net.graph().positions()) {
    EXPECT_TRUE(hull.contains(p));
  }
}

TEST(InterestArea, DegenerateTinyNetworks) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}}, 20.0);
  InterestArea area(g, 5.0);
  // Both nodes are on the (degenerate) hull: everything is edge.
  EXPECT_EQ(area.edge_count(), 2u);
  EXPECT_TRUE(area.interior_nodes().empty());
}

/// `area` is the exact classification of `g` at `band`: the hull of every
/// position, edge iff distance_to_hull_boundary <= band (no prefilter), and
/// the interior list of the live non-edge nodes in id order.
void expect_exact_area(const InterestArea& area, const UnitDiskGraph& g,
                       double band) {
  const std::vector<Vec2> hull = convex_hull(g.positions());
  EXPECT_EQ(area.hull(), hull);
  std::vector<NodeId> interior;
  for (NodeId u = 0; u < g.size(); ++u) {
    const bool edge = distance_to_hull_boundary(hull, g.position(u)) <= band;
    EXPECT_EQ(area.is_edge_node(u), edge)
        << "node " << u << " at (" << g.position(u).x << ", "
        << g.position(u).y << "), band " << band;
    if (!edge && g.alive(u)) interior.push_back(u);
  }
  EXPECT_EQ(area.interior_nodes(), interior);
}

void expect_exact_for_bands(const std::vector<Vec2>& positions,
                            const std::vector<double>& bands) {
  UnitDiskGraph g = test::make_graph(positions);
  for (double band : bands) expect_exact_area(InterestArea(g, band), g, band);
}

/// A square lattice: whole rows sit exactly on hull edges, and bands equal
/// to multiples of the spacing put rows exactly at the band distance.
std::vector<Vec2> lattice(int side, double spacing, Vec2 origin = {}) {
  std::vector<Vec2> pts;
  for (int row = 0; row < side; ++row) {
    for (int col = 0; col < side; ++col) {
      pts.push_back(origin + Vec2{col * spacing, row * spacing});
    }
  }
  return pts;
}

TEST(InterestArea, ExactOnLattices) {
  expect_exact_for_bands(lattice(21, 10.0),
                         {0.0, 5.0, 10.0, 20.0, 30.0, 100.0, 1e6});
  // Far from the origin, where the prefilter's slack scales with |coords|.
  expect_exact_for_bands(lattice(15, 7.0, {1e7, -3e6}),
                         {0.0, 7.0, 14.0, 21.0, 1e9});
  // A 45-degree lattice: hull edges are diagonal, so points on them are
  // only on the edge up to rounding.
  std::vector<Vec2> rotated;
  const double c = std::sqrt(0.5);
  for (Vec2 p : lattice(17, 9.0)) {
    rotated.push_back({c * (p.x - p.y) + 500.0, c * (p.x + p.y)});
  }
  expect_exact_for_bands(rotated, {0.0, 9.0 * c, 9.0, 18.0, 45.0, 1e4});
}

TEST(InterestArea, ExactOnCollinearRows) {
  std::vector<Vec2> line;
  for (int i = 0; i < 40; ++i) line.push_back({3.0 * i, 2.0 * i + 1.0});
  expect_exact_for_bands(line, {0.0, 1.0, 50.0});
  // One row plus a single apex: a thin triangle whose base holds every
  // other point exactly on a hull edge.
  std::vector<Vec2> row;
  for (int i = 0; i < 40; ++i) row.push_back({5.0 * i, 0.0});
  row.push_back({100.0, 0.5});
  expect_exact_for_bands(row, {0.0, 0.25, 0.5, 1.0, 1e3});
}

TEST(InterestArea, ExactWithDuplicatePositions) {
  std::vector<Vec2> pts = lattice(12, 10.0);
  const std::size_t base = pts.size();
  for (std::size_t i = 0; i < base; ++i) pts.push_back(pts[i]);
  for (int k = 0; k < 50; ++k) pts.push_back({55.0, 55.0});
  expect_exact_for_bands(pts, {0.0, 10.0, 25.0, 55.0, 60.0});
}

TEST(InterestArea, ExactOnHullEdgesAndAtTheBand) {
  // Corners, points exactly on each side, and interior points exactly one
  // band from a side.
  std::vector<Vec2> pts = {{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0},
                           {0.0, 100.0}};
  for (double t : {12.5, 25.0, 50.0, 75.0}) {
    pts.push_back({t, 0.0});
    pts.push_back({100.0, t});
    pts.push_back({t, 100.0});
    pts.push_back({0.0, t});
    pts.push_back({t, 20.0});
    pts.push_back({80.0, t});
  }
  pts.push_back({50.0, 50.0});
  expect_exact_for_bands(pts, {0.0, 12.5, 20.0, 25.0, 50.0, 1e3});
}

TEST(InterestArea, ExactOnTinyNetworks) {
  const std::vector<double> bands = {0.0, 1.0, 1e6};
  expect_exact_for_bands({}, bands);
  expect_exact_for_bands({{5.0, 5.0}}, bands);
  expect_exact_for_bands({{0.0, 0.0}, {10.0, 0.0}}, bands);
  expect_exact_for_bands({{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}}, bands);
}

TEST(InterestArea, ExactOnRandomDeployments) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    const UnitDiskGraph& g = net.graph();
    for (double band : {0.0, g.range(), 2.5 * g.range(), 1e4}) {
      expect_exact_area(InterestArea(g, band), g, band);
    }
  }
}

/// The failure-sibling area keeps the hull and flags and drops the dead
/// from the interior: equal to a fresh area over the degraded graph.
TEST(InterestArea, WithFailuresEqualsFreshArea) {
  Network net = test::random_network(400, 29, DeployModel::kForbiddenAreas);
  const double band = net.edge_band();
  InterestArea area(net.graph(), band);
  UnitDiskGraph g = net.graph();
  Rng rng(4);
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<NodeId> failed;
    for (int k = 0; k < 20; ++k) {
      failed.push_back(static_cast<NodeId>(rng.next_below(g.size())));
    }
    g = g.with_failures(failed);
    area = area.with_failures(g);
    expect_exact_area(area, g, band);
  }
}

}  // namespace
}  // namespace spr
