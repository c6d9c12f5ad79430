#include "routing/gf.h"

#include <gtest/gtest.h>

#include "graph/graph_algos.h"
#include "test_helpers.h"

namespace spr {
namespace {

struct GfFixture {
  explicit GfFixture(Deployment dep)
      : g(dep.positions, dep.radio_range, dep.field),
        overlay(g),
        boundhole(g) {}

  GfRouter face_router() {
    return GfRouter(g, overlay, nullptr, GfRouter::Recovery::kFace);
  }
  GfRouter boundhole_router() {
    return GfRouter(g, overlay, &boundhole, GfRouter::Recovery::kBoundHole);
  }

  UnitDiskGraph g;
  PlanarOverlay overlay;
  BoundHoleInfo boundhole;
};

TEST(Gf, GreedyDeliversOnLine) {
  auto g = test::make_graph(
      {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}, 12.0);
  PlanarOverlay overlay(g);
  GfRouter router(g, overlay, nullptr, GfRouter::Recovery::kFace);
  PathResult r = router.route(0, 3);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.hops(), 3u);
  EXPECT_EQ(r.local_minima, 0u);
}

TEST(Gf, FaceTourCompletionStopsAtUnreachableDestination) {
  // A 3 x 3 lattice and a far node out of range of all of it: greedy stalls
  // at (20, 0), and the face walk tours the lattice's outer face once. The
  // walk must stop with kDeadEnd when it is about to repeat the face's first
  // edge, instead of circling until the 8n TTL runs out.
  std::vector<Vec2> positions;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) positions.push_back({10.0 * x, 10.0 * y});
  }
  positions.push_back({200.0, 0.0});
  auto g = test::make_graph(positions, 12.0);
  const NodeId far = 9;
  PlanarOverlay overlay(g);
  BoundHoleInfo boundhole(g);
  for (GfRouter::Recovery recovery :
       {GfRouter::Recovery::kFace, GfRouter::Recovery::kBoundHole}) {
    GfRouter router(g, overlay, &boundhole, recovery);
    PathResult r = router.route(0, far);
    EXPECT_EQ(r.status, RouteStatus::kDeadEnd) << router.name();
    EXPECT_EQ(r.local_minima, 1u) << router.name();
    // Two greedy hops, then at most one tour of the outer face.
    EXPECT_LE(r.hops(), 2u + 2 * overlay.edge_count()) << router.name();
  }
}

TEST(Gf, GreedyHopsAlwaysProgress) {
  Network net = test::random_network(400, 29);
  auto router = net.make_router(Scheme::kGfFace);
  const auto& g = net.graph();
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    ASSERT_NE(s, kInvalidNode);
    PathResult r = router->route(s, d);
    Vec2 dest = g.position(d);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      if (r.hop_phases[i] != HopPhase::kGreedy) continue;
      EXPECT_LT(distance(g.position(r.path[i + 1]), dest),
                distance(g.position(r.path[i]), dest) + 1e-9);
    }
  }
}

TEST(Gf, FaceRecoveryCrossesVoid) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  GfFixture fx(std::move(dep));
  NodeId s = kInvalidNode, d = kInvalidNode;
  for (NodeId u = 0; u < fx.g.size(); ++u) {
    if (fx.g.position(u) == Vec2(50.0, 100.0)) s = u;
    if (fx.g.position(u) == Vec2(150.0, 100.0)) d = u;
  }
  ASSERT_NE(s, kInvalidNode);
  ASSERT_NE(d, kInvalidNode);
  GfRouter router = fx.face_router();
  PathResult r = router.route(s, d);
  EXPECT_TRUE(r.delivered());
  EXPECT_GE(r.local_minima, 1u);
  EXPECT_GT(r.perimeter_hops(), 0u);
}

TEST(Gf, BoundholeRecoveryCrossesVoid) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  GfFixture fx(std::move(dep));
  NodeId s = kInvalidNode, d = kInvalidNode;
  for (NodeId u = 0; u < fx.g.size(); ++u) {
    if (fx.g.position(u) == Vec2(40.0, 100.0)) s = u;
    if (fx.g.position(u) == Vec2(160.0, 100.0)) d = u;
  }
  ASSERT_NE(s, kInvalidNode);
  ASSERT_NE(d, kInvalidNode);
  GfRouter router = fx.boundhole_router();
  PathResult r = router.route(s, d);
  EXPECT_TRUE(r.delivered());
}

TEST(Gf, FaceRoutingDeliversOnConnectedPairs) {
  // GPSR with Gabriel planarization should essentially always deliver.
  int delivered = 0, total = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(450, seed, DeployModel::kForbiddenAreas);
    auto router = net.make_router(Scheme::kGfFace);
    Rng rng(seed ^ 0xabcd);
    for (int trial = 0; trial < 10; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      ++total;
      if (router->route(s, d).delivered()) ++delivered;
    }
  }
  EXPECT_GE(static_cast<double>(delivered) / total, 0.95)
      << delivered << "/" << total;
}

TEST(Gf, BoundholeVariantDeliversComparably) {
  int delivered = 0, total = 0;
  for (std::uint64_t seed : {11ull, 23ull, 37ull, 59ull}) {
    Network net = test::random_network(450, seed, DeployModel::kForbiddenAreas);
    auto router = net.make_router(Scheme::kGf);
    Rng rng(seed ^ 0x1234);
    for (int trial = 0; trial < 10; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      ++total;
      if (router->route(s, d).delivered()) ++delivered;
    }
  }
  EXPECT_GE(static_cast<double>(delivered) / total, 0.85)
      << delivered << "/" << total;
}

TEST(Gf, PathIsValidWalk) {
  Network net = test::random_network(400, 41, DeployModel::kForbiddenAreas);
  const auto& g = net.graph();
  for (Scheme scheme : {Scheme::kGf, Scheme::kGfFace}) {
    auto router = net.make_router(scheme);
    Rng rng(6);
    for (int trial = 0; trial < 25; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      ASSERT_NE(s, kInvalidNode);
      PathResult r = router->route(s, d);
      EXPECT_EQ(r.path.front(), s);
      for (std::size_t i = 1; i < r.path.size(); ++i) {
        EXPECT_TRUE(g.are_neighbors(r.path[i - 1], r.path[i]));
      }
      if (r.delivered()) {
        EXPECT_EQ(r.path.back(), d);
      }
    }
  }
}

TEST(Gf, NoRecoveryNeededOnDenseGrid) {
  Deployment dep = test::dense_grid_deployment(400, 8);
  GfFixture fx(std::move(dep));
  GfRouter router = fx.face_router();
  InterestArea area(fx.g, fx.g.range());
  Rng rng(9);
  const auto& interior = area.interior_nodes();
  ASSERT_GE(interior.size(), 2u);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId s = interior[rng.next_below(interior.size())];
    NodeId d = interior[rng.next_below(interior.size())];
    PathResult r = router.route(s, d);
    EXPECT_TRUE(r.delivered());
    EXPECT_EQ(r.local_minima, 0u) << "dense grid should never be stuck";
  }
}

}  // namespace
}  // namespace spr
