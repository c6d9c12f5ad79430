/// \file regression_test.cpp
/// Pinned reproductions of bugs found during development, so they stay
/// fixed. Each test names the failure mode it guards against.

#include <gtest/gtest.h>

#include "graph/graph_algos.h"
#include "routing/boundhole.h"
#include "routing/slgf2.h"
#include "test_helpers.h"

namespace spr {
namespace {

/// Bug: SLGF2's safe forwarding did not exclude visited nodes. With a
/// degenerate request zone (source and destination at exactly equal y), the
/// zone-greedy kept bouncing back to the wall node after every backup hop
/// until its whole neighborhood was exhausted -> spurious dead-end after ~9
/// hops on a trivially routable pair.
TEST(Regression, ThinZonePingPongDeadEnd) {
  Deployment dep = test::grid_with_void(
      22, 10.0, Rect::from_corners({70.0, 40.0}, {150.0, 180.0}));
  Network net(dep, 15.0);
  NodeId s = kInvalidNode, d = kInvalidNode;
  for (NodeId u = 0; u < net.graph().size(); ++u) {
    if (almost_equal(net.graph().position(u), {50.0, 110.0})) s = u;
    if (almost_equal(net.graph().position(u), {170.0, 110.0})) d = u;
  }
  ASSERT_NE(s, kInvalidNode);
  ASSERT_NE(d, kInvalidNode);
  auto router = net.make_router(Scheme::kSlgf2);
  PathResult r = router->route(s, d);
  EXPECT_TRUE(r.delivered());
}

/// Bug: releasing the backup hand on distance progress let the hand be
/// re-chosen next to the same obstacle; with the void's degenerate point
/// estimates the new hand flipped and the walk reversed, turning a 25-hop
/// detour into 69 hops. The committed hand must survive until safe
/// forwarding resumes, and the detour must stay comparable to LGF's.
TEST(Regression, BackupHandNotRechoseMidDetour) {
  Deployment dep = test::grid_with_void(
      22, 10.0, Rect::from_corners({70.0, 40.0}, {150.0, 180.0}));
  Network net(dep, 15.0);
  NodeId s = kInvalidNode, d = kInvalidNode;
  for (NodeId u = 0; u < net.graph().size(); ++u) {
    if (almost_equal(net.graph().position(u), {50.0, 110.0})) s = u;
    if (almost_equal(net.graph().position(u), {170.0, 110.0})) d = u;
  }
  auto slgf2 = net.make_router(Scheme::kSlgf2);
  auto lgf = net.make_router(Scheme::kLgf);
  PathResult r2 = slgf2->route(s, d);
  PathResult rl = lgf->route(s, d);
  ASSERT_TRUE(r2.delivered());
  ASSERT_TRUE(rl.delivered());
  EXPECT_LE(r2.hops(), rl.hops() + 2) << "hand flip mid-detour reverses walks";
}

/// Bug: the naive circumcenter TENT test flagged near-collinear neighbor
/// pairs as stuck (circumradius blows up for thin triangles even when the
/// wedge holds no stuck direction), marking ~60% of a dense grid's interior
/// as stuck.
TEST(Regression, TentRuleNearCollinearNeighbors) {
  // u with two nearly-collinear neighbors east plus a ring of support.
  auto g = test::make_graph({{0.0, 0.0},
                             {10.0, 0.0},
                             {19.0, 0.4},   // nearly collinear with the first
                             {0.0, 10.0},
                             {-10.0, 0.0},
                             {0.0, -10.0},
                             {7.0, 7.0},
                             {-7.0, 7.0},
                             {-7.0, -7.0},
                             {7.0, -7.0}},
                            20.0);
  EXPECT_FALSE(tent_rule_stuck(g, 0));
}

/// Bug: BOUNDHOLE's sweep can "close" a figure-eight mega-walk whose net
/// signed area is small; GF then walked ~1300 hops of "boundary". Such
/// walks must be discarded at construction.
TEST(Regression, BoundholeMegaCycleDiscarded) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(600, seed, DeployModel::kForbiddenAreas);
    const auto& info = net.boundhole();
    for (const auto& b : info.boundaries()) {
      EXPECT_LE(b.cycle.size(), std::max<std::size_t>(16, 600 / 4))
          << "seed " << seed;
    }
  }
}

/// Bug: GF's boundary-walk fallback kept the original perimeter entry
/// point, corrupting the face-change geometry; packets wandered for
/// hundreds of hops. Guard: on FA networks no delivered GF packet may spend
/// more than ~2n hops.
TEST(Regression, GfRecoveryHopBound) {
  for (std::uint64_t seed : {11ull, 23ull, 37ull}) {
    Network net = test::random_network(600, seed, DeployModel::kForbiddenAreas);
    auto router = net.make_router(Scheme::kGf);
    Rng rng(seed ^ 0x42);
    for (int trial = 0; trial < 10; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      PathResult r = router->route(s, d);
      if (r.delivered()) {
        EXPECT_LE(r.hops(), 2 * net.graph().size()) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace spr
