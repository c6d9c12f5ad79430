#include "safety/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/network.h"
#include "mobility/waypoint.h"
#include "test_helpers.h"

namespace spr {
namespace {

std::vector<Vec2> jitter_positions(const std::vector<Vec2>& positions,
                                   const Rect& field, double magnitude,
                                   Rng& rng) {
  std::vector<Vec2> moved = positions;
  for (Vec2& p : moved) {
    p.x = std::clamp(p.x + rng.uniform(-magnitude, magnitude), field.lo().x,
                     field.hi().x);
    p.y = std::clamp(p.y + rng.uniform(-magnitude, magnitude), field.lo().y,
                     field.hi().y);
  }
  return moved;
}

/// The bidirectional updater must land on exactly the fixpoint a
/// from-scratch compute_safety produces on the moved graph — statuses AND
/// anchors (SafetyInfo equality covers both) — for random whole-field
/// motion of varying magnitude.
TEST(IncrementalMoves, MatchesFullRecomputeOnRandomMotion) {
  for (std::uint64_t seed : test::property_seeds()) {
    for (double magnitude : {2.0, 12.0, 40.0}) {
      Network net =
          test::random_network(350, seed, DeployModel::kForbiddenAreas);
      net.force(Network::kNeedsSafety);
      Rng rng(seed ^ 0x700e);
      std::vector<Vec2> moved = jitter_positions(
          net.graph().positions(), net.deployment().field, magnitude, rng);

      IncrementalStats stats;
      Network after = net.with_moves(moved, &stats);
      ASSERT_TRUE(after.has_safety());  // derived, not rebuilt lazily
      SafetyInfo from_scratch =
          compute_safety(after.graph(), after.interest_area());
      EXPECT_EQ(after.safety(), from_scratch)
          << "seed " << seed << " magnitude " << magnitude
          << ": incremental fixpoint diverged from compute_safety";
    }
  }
}

/// Localized motion — only every fourth node drifts, which keeps
/// with_moves on its relocate-and-patch branch and leaves most nodes
/// untouched for the updater's pre-pass — must still land exactly on the
/// from-scratch fixpoint, including across chained epochs.
TEST(IncrementalMoves, LocalizedMotionMatchesFullRecompute) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net =
        test::random_network(350, seed, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);
    Rng rng(seed ^ 0x10ca1);
    for (int epoch = 0; epoch < 3; ++epoch) {
      std::vector<Vec2> moved = net.graph().positions();
      for (std::size_t i = 0; i < moved.size(); i += 4) {
        moved[i].x = std::clamp(moved[i].x + rng.uniform(-12.0, 12.0),
                                net.deployment().field.lo().x,
                                net.deployment().field.hi().x);
        moved[i].y = std::clamp(moved[i].y + rng.uniform(-12.0, 12.0),
                                net.deployment().field.lo().y,
                                net.deployment().field.hi().y);
      }
      IncrementalStats stats;
      Network after = net.with_moves(moved, &stats);
      SafetyInfo from_scratch =
          compute_safety(after.graph(), after.interest_area());
      ASSERT_EQ(after.safety(), from_scratch)
          << "seed " << seed << " epoch " << epoch;
      net = std::move(after);
    }
  }
}

/// Motion that *fills* a hole must promote labels back to safe, and the
/// updater must both promote and match the fresh fixpoint. Two inputs:
///  * an FA deployment (big holes) with every node contracted toward the
///    field center;
///  * a dense grid with a wide [40,160]x[80,120] hole failed, then 40
///    fillers moved into its west end only. The unsafe band hugging the
///    hole is one cluster, so the raise reaches more than one radio range
///    past every mover: a promotion that only looked near the movers
///    would leave the east end unsafe.
TEST(IncrementalMoves, FillingAHolePromotesLabels) {
  auto fill = [](const Network& net, const std::vector<Vec2>& moved) {
    IncrementalStats stats;
    Network after = net.with_moves(moved, &stats);
    EXPECT_EQ(after.safety(),
              compute_safety(after.graph(), after.interest_area()));
    EXPECT_GT(stats.promotions, 0u) << "filling a hole must re-raise labels";
    return after;
  };

  {
    Network net = test::random_network(500, 97, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);
    ASSERT_GT(net.safety().unsafe_node_count(), 0u);
    Vec2 center = net.deployment().field.center();
    std::vector<Vec2> moved = net.graph().positions();
    for (Vec2& p : moved) p += (center - p) * 0.45;  // contract toward center
    fill(net, moved);
  }

  Network grid(test::dense_grid_deployment(700, 13));
  grid.force(Network::kNeedsSafety);
  const Rect hole = Rect::from_bounds({40.0, 80.0}, {160.0, 120.0});
  std::vector<NodeId> failed;
  for (NodeId u = 0; u < grid.graph().size(); ++u) {
    if (hole.contains(grid.graph().position(u))) failed.push_back(u);
  }
  ASSERT_GT(failed.size(), 10u);
  Network holed = grid.with_failures(failed);
  ASSERT_EQ(holed.safety(),
            compute_safety(holed.graph(), holed.interest_area()));

  // Fillers come from the far west edge and land in x in [45, 72].
  Rng rng(0xf111);
  std::vector<Vec2> moved = holed.graph().positions();
  std::vector<NodeId> movers;
  for (NodeId u = 0; u < holed.graph().size() && movers.size() < 40; ++u) {
    if (!holed.graph().alive(u) || moved[u].x > 30.0) continue;
    moved[u] = {rng.uniform(45.0, 72.0), rng.uniform(85.0, 115.0)};
    movers.push_back(u);
  }
  ASSERT_GT(movers.size(), 10u);
  Network filled = fill(holed, moved);

  double reach = 0.0;  // farthest raised node from its nearest mover
  for (NodeId u = 0; u < filled.graph().size(); ++u) {
    for (ZoneType t : kAllZoneTypes) {
      if (holed.safety().is_safe(u, t) || !filled.safety().is_safe(u, t)) {
        continue;
      }
      double nearest = std::numeric_limits<double>::infinity();
      for (NodeId m : movers) {
        nearest = std::min(nearest, distance(moved[u], moved[m]));
      }
      reach = std::max(reach, nearest);
    }
  }
  EXPECT_GT(reach, filled.graph().range());
}

/// No motion is a no-op: zero seeds, zero promotions/demotions, and the
/// labeling object is unchanged.
TEST(IncrementalMoves, NoMotionIsNoOp) {
  Network net = test::random_network(300, 41, DeployModel::kForbiddenAreas);
  net.force(Network::kNeedsSafety);
  IncrementalStats stats;
  Network same = net.with_moves(net.graph().positions(), &stats);
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.flips, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(same.safety(), net.safety());
}

/// Without a built labeling, with_moves leaves safety lazy (and the lazily
/// built labeling is the moved graph's own fixpoint).
TEST(IncrementalMoves, LazySafetyStaysLazyAndCorrect) {
  Network net = test::random_network(300, 53, DeployModel::kForbiddenAreas);
  ASSERT_FALSE(net.has_safety());
  Rng rng(7);
  std::vector<Vec2> moved = jitter_positions(
      net.graph().positions(), net.deployment().field, 15.0, rng);
  IncrementalStats stats;
  stats.seeds = 999;  // must be zeroed: nothing incremental happened
  Network after = net.with_moves(moved, &stats);
  EXPECT_FALSE(after.has_safety());
  EXPECT_EQ(stats.seeds, 0u);
  SafetyInfo from_scratch =
      compute_safety(after.graph(), after.interest_area());
  EXPECT_EQ(after.safety(), from_scratch);
}

/// The acceptance criterion: a staged-mobility run — waypoint re-pin epochs
/// *interleaved with failure waves* — where the incrementally maintained
/// labeling equals a from-scratch compute_safety at every stage, and the
/// diff/edge-delta plumbing stays consistent throughout the chain.
TEST(IncrementalMoves, StagedMobilityWithFailureWavesMatchesAtEveryEpoch) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net =
        test::random_network(450, seed, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);
    WaypointConfig wc;
    wc.field = net.deployment().field;
    wc.max_speed_mps = 3.0;
    WaypointModel model(net.deployment().positions, wc, Rng(seed ^ 0xabc));
    Rng rng(seed ^ 0xfa11);

    for (int epoch = 0; epoch < 4; ++epoch) {
      // Move epoch.
      model.advance(10.0);
      IncrementalStats move_stats;
      EdgeDiff diff;
      Network moved = net.with_moves(model.positions(), &move_stats, &diff);
      ASSERT_TRUE(moved.has_safety());
      SafetyInfo fresh_moved =
          compute_safety(moved.graph(), moved.interest_area());
      ASSERT_EQ(moved.safety(), fresh_moved)
          << "seed " << seed << " move epoch " << epoch;

      // Interleaved failure wave on the moved snapshot.
      std::vector<NodeId> casualties;
      for (NodeId u = static_cast<NodeId>(epoch * 13 + 5);
           u < moved.graph().size() && casualties.size() < 12; u += 29) {
        if (moved.graph().alive(u)) casualties.push_back(u);
      }
      Network degraded = moved.with_failures(casualties);
      SafetyInfo fresh_degraded =
          compute_safety(degraded.graph(), degraded.interest_area());
      ASSERT_EQ(degraded.safety(), fresh_degraded)
          << "seed " << seed << " failure epoch " << epoch;
      for (NodeId u : casualties) {
        ASSERT_FALSE(degraded.graph().alive(u));
      }
      net = std::move(degraded);
    }
  }
}

/// Promotions and demotions are both counted, and the counters line up
/// with the observable label delta.
TEST(IncrementalMoves, StatsCountLabelChanges) {
  Network net = test::random_network(400, 19, DeployModel::kForbiddenAreas);
  net.force(Network::kNeedsSafety);
  Rng rng(0x57a75);
  std::vector<Vec2> moved = jitter_positions(
      net.graph().positions(), net.deployment().field, 35.0, rng);
  SafetyInfo before_info = net.safety();
  IncrementalStats stats;
  Network after = net.with_moves(moved, &stats);

  // Every status that differs between the old and new fixpoint was either
  // promoted or demoted at least once (a pair can also be raised and then
  // re-demoted, so the counters bound the delta from above).
  std::size_t went_safe = 0, went_unsafe = 0;
  for (NodeId u = 0; u < after.graph().size(); ++u) {
    if (!after.graph().alive(u)) continue;
    for (ZoneType t : kAllZoneTypes) {
      bool was = before_info.is_safe(u, t);
      bool is = after.safety().is_safe(u, t);
      if (!was && is) ++went_safe;
      if (was && !is) ++went_unsafe;
    }
  }
  EXPECT_LE(went_safe, stats.promotions);
  EXPECT_LE(went_unsafe, stats.flips);
  EXPECT_GT(stats.seeds, 0u);
}

}  // namespace
}  // namespace spr
