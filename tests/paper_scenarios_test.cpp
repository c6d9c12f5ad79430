/// \file paper_scenarios_test.cpp
/// Hand-built versions of the situations the paper's figures narrate:
/// Fig. 1(a)'s intertwined blocking areas, Fig. 4's safe-forwarding /
/// backup-path / critical-forbidden cases. Each fixture pins the geometry
/// so the expected mechanism can be asserted deterministically.

#include <gtest/gtest.h>

#include <cmath>

#include "core/network.h"
#include "geometry/segment.h"
#include "graph/graph_algos.h"
#include "safety/regions.h"
#include "test_helpers.h"

namespace spr {
namespace {

/// A field with a large void between source and destination regions, built
/// as a grid so results are deterministic: the paper's basic blocking
/// scenario.
class BlockedFieldScenario : public ::testing::Test {
 protected:
  BlockedFieldScenario() {
    dep_ = test::grid_with_void(
        22, 10.0, Rect::from_corners({70.0, 40.0}, {150.0, 180.0}));
    net_.emplace(Network(dep_));
    // West of the void at mid height / east of the void.
    s_ = find_node({50.0, 110.0});
    d_ = find_node({170.0, 110.0});
  }

  NodeId find_node(Vec2 p) {
    for (NodeId u = 0; u < net_->graph().size(); ++u) {
      if (almost_equal(net_->graph().position(u), p)) return u;
    }
    return kInvalidNode;
  }

  Deployment dep_;
  std::optional<Network> net_;
  NodeId s_ = kInvalidNode, d_ = kInvalidNode;
};

TEST_F(BlockedFieldScenario, SetupIsSound) {
  ASSERT_NE(s_, kInvalidNode);
  ASSERT_NE(d_, kInvalidNode);
  EXPECT_TRUE(connected(net_->graph(), s_, d_));
  // The void creates unsafe nodes on its west rim.
  EXPECT_GT(net_->safety().unsafe_node_count(), 0u);
}

TEST_F(BlockedFieldScenario, EverySchemeCrossesTheVoid) {
  for (Scheme scheme : {Scheme::kGf, Scheme::kGfFace, Scheme::kLgf,
                        Scheme::kSlgf, Scheme::kSlgf2}) {
    auto router = net_->make_router(scheme);
    PathResult r = router->route(s_, d_);
    EXPECT_TRUE(r.delivered()) << scheme_name(scheme);
  }
}

TEST_F(BlockedFieldScenario, Slgf2DetourIsCompetitive) {
  auto slgf2 = net_->make_router(Scheme::kSlgf2);
  auto lgf = net_->make_router(Scheme::kLgf);
  PathResult r2 = slgf2->route(s_, d_);
  PathResult rl = lgf->route(s_, d_);
  ASSERT_TRUE(r2.delivered());
  ASSERT_TRUE(rl.delivered());
  // The shape information lets SLGF2 pick a side before reaching the wall;
  // LGF discovers the wall by walking into it.
  EXPECT_LE(r2.hops(), rl.hops());
  // And the detour stays within sight of optimal.
  auto oracle = bfs_path(net_->graph(), s_, d_);
  EXPECT_LE(r2.hops(), oracle.hops() * 3);
}

TEST_F(BlockedFieldScenario, Slgf2AvoidsPerimeterViaBackup) {
  auto slgf2 = net_->make_router(Scheme::kSlgf2);
  PathResult r = slgf2->route(s_, d_);
  ASSERT_TRUE(r.delivered());
  // Fig. 4(d): the unsafe area is circumvented with backup-path forwarding,
  // not the perimeter phase.
  EXPECT_EQ(r.perimeter_hops(), 0u);
}

TEST_F(BlockedFieldScenario, TraceShowsSingleDetourEpisode) {
  auto slgf2 = net_->make_router(Scheme::kSlgf2);
  PathResult r = slgf2->route(s_, d_);
  ASSERT_TRUE(r.delivered());
  // Detour episodes are the maximal runs of non-greedy hops. One void, one
  // detour around it (allowing one extra micro-episode for the re-approach).
  std::size_t detours = 0;
  for (std::size_t i = 0; i < r.hop_phases.size(); ++i) {
    if (r.hop_phases[i] != HopPhase::kGreedy &&
        (i == 0 || r.hop_phases[i - 1] == HopPhase::kGreedy)) {
      ++detours;
    }
  }
  EXPECT_LE(detours, 2u);
  // Straightness: |sd| over the path length.
  const double straight =
      distance(net_->graph().position(s_), net_->graph().position(d_));
  EXPECT_GT(straight / r.length, 0.4);
}

/// Fig. 4(a-c): when source and destination are both safe and no unsafe
/// area intervenes, the path is pure safe forwarding in possibly changing
/// zone types.
TEST(PaperScenarios, PureSafeForwardingAcrossZoneTypes) {
  Deployment dep = test::dense_grid_deployment(400, 17);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  SafetyInfo info = compute_safety(g, area);
  Slgf2Router router(g, info);
  const auto& interior = area.interior_nodes();
  ASSERT_GE(interior.size(), 2u);
  Rng rng(3);
  int zone_change_paths = 0;
  for (int trial = 0; trial < 40; ++trial) {
    NodeId s = interior[rng.next_below(interior.size())];
    NodeId d = interior[rng.next_below(interior.size())];
    if (s == d) continue;
    PathResult r = router.route(s, d);
    ASSERT_TRUE(r.delivered());
    EXPECT_EQ(r.perimeter_hops(), 0u);
    // Count paths whose request-zone type changes en route (Fig. 2(b)).
    Vec2 dest = g.position(d);
    ZoneType first = zone_type(g.position(s), dest);
    for (NodeId u : r.path) {
      if (u == d) break;
      if (zone_type(g.position(u), dest) != first) {
        ++zone_change_paths;
        break;
      }
    }
  }
  EXPECT_GT(zone_change_paths, 0)
      << "sampled paths never changed zone type; fixture too small";
}

/// Fig. 1(b)/4(b): the superseding rule keeps SLGF2's hops out of forbidden
/// regions. Measured behaviorally over random FA networks: for every hop
/// u -> v of a delivered path, count landings where v sits in the forbidden
/// region of a visible estimate that blocks the straight line u -> d. The
/// either-hand rule must not land there more often than the rule-free LGF,
/// and disabling the rule must not *reduce* the landings of SLGF2 itself.
TEST(PaperScenarios, ForbiddenRegionLandingsSuppressed) {
  std::size_t slgf2_landings = 0, ablated_landings = 0, slgf2_hops = 0,
              ablated_hops = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(550, seed, DeployModel::kForbiddenAreas);
    const auto& g = net.graph();
    const auto& info = net.safety();
    auto full = net.make_router(Scheme::kSlgf2);
    Slgf2Options no_rule;
    no_rule.use_either_hand = false;
    auto ablated = net.make_router(Scheme::kSlgf2, no_rule);

    auto count_landings = [&](const PathResult& r, NodeId d) {
      std::size_t landings = 0;
      Vec2 dest = g.position(d);
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        NodeId u = r.path[i], v = r.path[i + 1];
        if (v == d) continue;
        Vec2 pu = g.position(u);
        for (const auto& e : visible_estimates(g, info, u)) {
          if (!segment_intersects_rect({pu, dest}, e.rect)) continue;
          if (in_forbidden_region(e, dest, g.position(v))) {
            ++landings;
            break;
          }
        }
      }
      return landings;
    };

    Rng rng(seed ^ 0x6a6a);
    for (int trial = 0; trial < 10; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      PathResult a = full->route(s, d);
      PathResult b = ablated->route(s, d);
      if (a.delivered()) {
        slgf2_landings += count_landings(a, d);
        slgf2_hops += a.hops();
      }
      if (b.delivered()) {
        ablated_landings += count_landings(b, d);
        ablated_hops += b.hops();
      }
    }
  }
  ASSERT_GT(slgf2_hops, 0u);
  ASSERT_GT(ablated_hops, 0u);
  // Rates, to be robust to slightly different path lengths.
  double with_rule = static_cast<double>(slgf2_landings) /
                     static_cast<double>(slgf2_hops);
  double without_rule = static_cast<double>(ablated_landings) /
                        static_cast<double>(ablated_hops);
  EXPECT_LE(with_rule, without_rule + 1e-9)
      << "with=" << with_rule << " without=" << without_rule;
}

/// Fig. 4(e): an all-unsafe source still delivers via backup/perimeter when
/// the graph is physically connected.
TEST(PaperScenarios, AllUnsafeSourceStillDelivers) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    const auto& info = net.safety();
    auto slgf2 = net.make_router(Scheme::kSlgf2);
    // Find a node unsafe in its zone type toward some interior destination.
    const auto& interior = net.interest_area().interior_nodes();
    Rng rng(seed);
    int tested = 0;
    for (int trial = 0; trial < 200 && tested < 3; ++trial) {
      NodeId s = interior[rng.next_below(interior.size())];
      NodeId d = interior[rng.next_below(interior.size())];
      if (s == d) continue;
      if (info.tuple(s).any_safe()) continue;  // want tuple near (0,0,0,0)
      if (!connected(net.graph(), s, d)) continue;
      ++tested;
      PathResult r = slgf2->route(s, d);
      EXPECT_TRUE(r.delivered())
          << "all-unsafe source " << s << " failed, seed " << seed;
    }
  }
  SUCCEED();  // all-unsafe sources are rare; the loop asserts when found
}

}  // namespace
}  // namespace spr
