#include "routing/slgf.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace spr {
namespace {

TEST(Slgf, DeliversOnLine) {
  Deployment dep = test::dense_grid_deployment(400, 2);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  SafetyInfo info = compute_safety(g, area);
  SlgfRouter router(g, info);
  const auto& interior = area.interior_nodes();
  ASSERT_GE(interior.size(), 2u);
  PathResult r = router.route(interior.front(), interior.back());
  EXPECT_TRUE(r.delivered());
}

TEST(Slgf, PathIsValidWalk) {
  Network net = test::random_network(400, 43, DeployModel::kForbiddenAreas);
  auto router = net.make_router(Scheme::kSlgf);
  const auto& g = net.graph();
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
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

TEST(Slgf, PrefersSafeSuccessors) {
  // When both a safe and an unsafe candidate advance inside the zone, SLGF
  // must take a safe one. Verified over random networks by replaying the
  // selection at every greedy hop.
  Network net = test::random_network(450, 47, DeployModel::kForbiddenAreas);
  const auto& g = net.graph();
  const auto& info = net.safety();
  auto router = net.make_router(Scheme::kSlgf);
  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    PathResult r = router->route(s, d);
    Vec2 dest = g.position(d);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      if (r.hop_phases[i] != HopPhase::kGreedy) continue;
      NodeId u = r.path[i], v = r.path[i + 1];
      if (v == d) continue;
      bool v_safe = info.is_safe(v, zone_type(g.position(v), dest));
      if (v_safe) continue;
      // v unsafe: then no safe zone candidate may have existed at u.
      bool safe_candidate_existed = false;
      for (NodeId w : g.neighbors(u)) {
        if (!request_zone(g.position(u), dest).contains(g.position(w))) continue;
        if (info.is_safe(w, zone_type(g.position(w), dest))) {
          safe_candidate_existed = true;
          break;
        }
      }
      EXPECT_FALSE(safe_candidate_existed)
          << "SLGF took unsafe " << v << " although a safe candidate existed";
    }
  }
}

TEST(Slgf, AtLeastAsRobustAsLgfOnDelivery) {
  int slgf_delivered = 0, lgf_delivered = 0, total = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    auto slgf = net.make_router(Scheme::kSlgf);
    auto lgf = net.make_router(Scheme::kLgf);
    Rng rng(seed ^ 0x5151);
    for (int trial = 0; trial < 8; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      ++total;
      if (slgf->route(s, d).delivered()) ++slgf_delivered;
      if (lgf->route(s, d).delivered()) ++lgf_delivered;
    }
  }
  EXPECT_GE(slgf_delivered + total / 20, lgf_delivered)
      << "SLGF should not be materially less reliable than LGF";
}

TEST(Slgf, FewerMinimaThanLgfOnAverage) {
  // The safety information lets SLGF dodge many local minima: summed over
  // pairs, its minima count should not exceed LGF's.
  std::size_t slgf_minima = 0, lgf_minima = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(550, seed, DeployModel::kForbiddenAreas);
    auto slgf = net.make_router(Scheme::kSlgf);
    auto lgf = net.make_router(Scheme::kLgf);
    Rng rng(seed ^ 0x7777);
    for (int trial = 0; trial < 8; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      slgf_minima += slgf->route(s, d).local_minima;
      lgf_minima += lgf->route(s, d).local_minima;
    }
  }
  EXPECT_LE(slgf_minima, lgf_minima + 2);
}

}  // namespace
}  // namespace spr
