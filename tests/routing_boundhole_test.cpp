#include "routing/boundhole.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "deploy/rng.h"
#include "support/boundhole_reference.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(TentRule, IsolatedAndLeafNodesAreStuck) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {100.0, 100.0}}, 12.0);
  EXPECT_TRUE(tent_rule_stuck(g, 0));  // single neighbor
  EXPECT_TRUE(tent_rule_stuck(g, 1));
}

TEST(TentRule, WideGapIsStuck) {
  // Two neighbors 90 degrees apart leave a 270-degree gap: stuck.
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}}, 12.0);
  EXPECT_TRUE(tent_rule_stuck(g, 0));
}

TEST(TentRule, DenseGridInteriorNotStuck) {
  Deployment dep = test::dense_grid_deployment(400, 12);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  int stuck_interior = 0;
  for (NodeId u : area.interior_nodes()) {
    if (tent_rule_stuck(g, u)) ++stuck_interior;
  }
  // A dense perturbed grid has no stuck interior nodes (holes need voids).
  EXPECT_EQ(stuck_interior, 0);
}

TEST(TentRule, VoidEdgeNodesAreStuck) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  // Node just west of the void looking east into it: (50,100).
  NodeId wall = kInvalidNode;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.position(u) == Vec2(50.0, 100.0)) wall = u;
  }
  ASSERT_NE(wall, kInvalidNode);
  EXPECT_TRUE(tent_rule_stuck(g, wall));
}

TEST(BoundHole, FindsBoundaryAroundVoid) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  BoundHoleInfo info(g);
  EXPECT_GT(info.stuck_count(), 0u);
  ASSERT_GT(info.boundaries().size(), 0u);
  // At least one boundary should ring the void: it must contain nodes on
  // at least three sides of the void rectangle.
  bool found_ring = false;
  for (const auto& b : info.boundaries()) {
    bool west = false, east = false, north = false, south = false;
    for (NodeId u : b.cycle) {
      Vec2 p = g.position(u);
      if (p.x <= 60.0 && p.y > 60.0 && p.y < 140.0) west = true;
      if (p.x >= 140.0 && p.y > 60.0 && p.y < 140.0) east = true;
      if (p.y >= 140.0 && p.x > 60.0 && p.x < 140.0) north = true;
      if (p.y <= 60.0 && p.x > 60.0 && p.x < 140.0) south = true;
    }
    if (static_cast<int>(west) + east + north + south >= 3) found_ring = true;
  }
  EXPECT_TRUE(found_ring);
}

TEST(BoundHole, CyclesAreClosedWalks) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  BoundHoleInfo info(g);
  for (const auto& b : info.boundaries()) {
    ASSERT_GE(b.cycle.size(), 3u);
    for (std::size_t i = 0; i + 1 < b.cycle.size(); ++i) {
      EXPECT_TRUE(g.are_neighbors(b.cycle[i], b.cycle[i + 1]))
          << "cycle gap at " << i;
    }
    // Closing edge back to the start.
    EXPECT_TRUE(g.are_neighbors(b.cycle.back(), b.cycle.front()));
  }
}

TEST(BoundHole, MembershipIndexConsistent) {
  Network net = test::random_network(450, 61, DeployModel::kForbiddenAreas);
  const auto& info = net.boundhole();
  for (std::size_t b = 0; b < info.boundaries().size(); ++b) {
    for (NodeId u : info.boundaries()[b].cycle) {
      int owner = info.boundary_of(u);
      ASSERT_NE(owner, -1);
      // A node may appear on several walks; its recorded cycle position must
      // point back at itself within its owning boundary.
      int pos = info.cycle_position(u);
      ASSERT_GE(pos, 0);
      EXPECT_EQ(info.boundaries()[static_cast<size_t>(owner)]
                    .cycle[static_cast<size_t>(pos)],
                u);
    }
  }
}

TEST(BoundHole, RandomNetworksProduceStuckNodesUnderFa) {
  std::size_t total_stuck = 0;
  for (std::uint64_t seed : {11ull, 23ull}) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    total_stuck += net.boundhole().stuck_count();
  }
  EXPECT_GT(total_stuck, 0u);
}

/// Asserts the production construction equal to the per-step reference
/// (tests/support/boundhole_reference.h) field for field. Returns the number
/// of kept boundaries so callers can check a case exercised the walk.
std::size_t expect_matches_reference(const UnitDiskGraph& g,
                                     const std::string& what) {
  SCOPED_TRACE(what);
  BoundHoleInfo info(g);
  test::ReferenceBoundHole ref = test::boundhole_reference(g);
  std::size_t mismatched = 0;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (info.is_stuck(u) != ref.stuck[u] ||
        info.boundary_of(u) != ref.boundary_of[u] ||
        info.cycle_position(u) != ref.cycle_pos[u] ||
        tent_rule_stuck(g, u) != test::tent_rule_stuck_reference(g, u)) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0u) << "nodes whose stuck flag or boundary slot differ";
  EXPECT_EQ(info.boundaries().size(), ref.boundaries.size());
  const std::size_t common =
      std::min(info.boundaries().size(), ref.boundaries.size());
  for (std::size_t b = 0; b < common; ++b) {
    EXPECT_EQ(info.boundaries()[b].cycle, ref.boundaries[b].cycle)
        << "boundary " << b;
  }
  return ref.boundaries.size();
}

Deployment random_field(int node_count, std::uint64_t seed, DeployModel model) {
  DeploymentConfig config;
  config.node_count = node_count;
  config.model = model;
  Rng rng(seed);
  return deploy(config, rng);
}

/// A lattice of `per_side`^2 points at `spacing`, minus the points inside
/// `void_rect`. The range picks the neighborhood: `spacing` gives the
/// 4-neighbor lattice, 1.5 * spacing the 8-neighbor one, 2 * spacing adds
/// the second point along each axis (exact collinear bearing ties).
std::vector<Vec2> lattice(int per_side, double spacing, Rect void_rect) {
  std::vector<Vec2> points;
  for (int row = 0; row < per_side; ++row) {
    for (int col = 0; col < per_side; ++col) {
      Vec2 p{col * spacing, row * spacing};
      if (!void_rect.contains(p)) points.push_back(p);
    }
  }
  return points;
}

TEST(BoundHole, MatchesReferenceWalk) {
  // Random paper fields, both deployment models.
  std::size_t random_boundaries = 0;
  for (DeployModel model : {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    for (int nodes : {400, 600, 800}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Deployment dep = random_field(nodes, seed, model);
        UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
        random_boundaries += expect_matches_reference(
            g, std::string(model == DeployModel::kIdeal ? "IA " : "FA ") +
                   std::to_string(nodes) + " seed " + std::to_string(seed));
      }
    }
  }
  EXPECT_GT(random_boundaries, 0u);

  // One FA field at 10^4 nodes, scaled to hold the paper's density.
  {
    DeploymentConfig config;
    config.node_count = 10000;
    config.model = DeployModel::kForbiddenAreas;
    const double scale = std::sqrt(10000.0 / 600.0);
    config.field = Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
    config.min_forbidden_extent *= scale;
    config.max_forbidden_extent *= scale;
    config.forbidden_margin *= scale;
    Rng rng(3);
    Deployment dep = deploy(config, rng);
    UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
    EXPECT_GT(expect_matches_reference(g, "scaled FA 10^4"), 0u);
  }

  // A failure wave: dead nodes keep their positions but lose every edge.
  {
    Deployment dep = random_field(600, 5, DeployModel::kForbiddenAreas);
    UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
    std::vector<NodeId> failed;
    for (NodeId u = 0; u < g.size(); u += 9) failed.push_back(u);
    expect_matches_reference(g.with_failures(failed), "after with_failures");
  }

  // Hostile geometry with exact bearing ties.
  std::size_t hostile_boundaries = 0;
  const Rect hole = Rect::from_corners({35.0, 35.0}, {95.0, 75.0});
  for (double reach : {1.0, 1.5, 2.0}) {
    hostile_boundaries += expect_matches_reference(
        test::make_graph(lattice(14, 10.0, hole), 10.0 * reach),
        "lattice, range " + std::to_string(reach) + " x spacing");
  }
  {
    // Collinear rows: every node sees several neighbors at bearing 0 and pi.
    std::vector<Vec2> rows;
    for (int r = 0; r < 3; ++r) {
      for (int i = 0; i < 40; ++i) rows.push_back({i * 5.0, r * 11.0});
    }
    expect_matches_reference(test::make_graph(rows, 12.0), "collinear rows");
    std::vector<Vec2> line(rows.begin(), rows.begin() + 40);
    expect_matches_reference(test::make_graph(line, 12.0), "one line");
  }
  {
    // A square frame of collinear segments around an empty interior, with
    // two far corner posts so the frame is a hole rather than the outer face.
    std::vector<Vec2> frame;
    for (int i = 0; i < 20; ++i) {
      const double t = i * 5.0;
      frame.push_back({100.0 + t, 100.0});
      frame.push_back({200.0, 100.0 + t});
      frame.push_back({200.0 - t, 200.0});
      frame.push_back({100.0, 200.0 - t});
    }
    frame.push_back({0.0, 0.0});
    frame.push_back({300.0, 300.0});
    hostile_boundaries +=
        expect_matches_reference(test::make_graph(frame, 12.0), "collinear frame");
  }
  {
    // Duplicate positions: every seventh node of a field doubled, plus a
    // stack of four coincident nodes.
    Deployment dep = random_field(400, 17, DeployModel::kForbiddenAreas);
    std::vector<Vec2> points = dep.positions;
    for (std::size_t i = 0; i < dep.positions.size(); i += 7) {
      points.push_back(dep.positions[i]);
    }
    for (int k = 0; k < 4; ++k) points.push_back(dep.positions[3]);
    UnitDiskGraph g(points, dep.radio_range, dep.field);
    hostile_boundaries += expect_matches_reference(g, "duplicate positions");
    expect_matches_reference(
        test::make_graph(std::vector<Vec2>(5, Vec2{1.0, 1.0}), 5.0),
        "all nodes coincident");
  }
  {
    // Two lattice blocks joined by a single bridge node.
    std::vector<Vec2> blocks =
        lattice(6, 10.0, Rect::from_corners({-9.0, -9.0}, {-8.0, -8.0}));
    const std::size_t half = blocks.size();
    for (std::size_t i = 0; i < half; ++i) {
      blocks.push_back(blocks[i] + Vec2{70.0, 0.0});
    }
    blocks.push_back({60.0, 20.0});
    hostile_boundaries += expect_matches_reference(
        test::make_graph(blocks, 15.0), "single-node bridge");
  }
  expect_matches_reference(test::make_graph({}), "empty field");
  expect_matches_reference(test::make_graph({{3.0, 4.0}}), "one-node field");
  expect_matches_reference(test::make_graph({{0.0, 0.0}, {5.0, 0.0}}),
                           "two-node field");
  EXPECT_GT(hostile_boundaries, 0u);
}

}  // namespace
}  // namespace spr
