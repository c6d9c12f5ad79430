/// \file safety_flat_kernel_test.cpp
/// The flat SoA labeling kernel against its scalar oracle: the default
/// `compute_safety`, both incremental updaters and the anchor pass must be
/// bit-identical — statuses AND anchors — to `compute_safety_scalar`
/// (tests/support/safety_oracles.h) across property seeds, deployment
/// models, thread counts and staged failure+move chains. Also pins the quadrant CSR itself: bucket contents
/// against a brute-force `zone_type` filter, and the patched epoch-to-epoch
/// view against a fresh build.

#include "safety/flat_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/network.h"
#include "graph/quadrant_csr.h"
#include "safety/incremental.h"
#include "safety/labeling.h"
#include "support/safety_oracles.h"
#include "test_helpers.h"
#include "util/task_pool.h"

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

std::vector<NodeId> draw_casualties(const UnitDiskGraph& g, Rng& rng,
                                    std::size_t count) {
  std::vector<NodeId> candidates;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.alive(u)) candidates.push_back(u);
  }
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < count && !candidates.empty(); ++i) {
    std::size_t pick = rng.next_below(candidates.size());
    out.push_back(candidates[pick]);
    candidates[pick] = candidates.back();
    candidates.pop_back();
  }
  return out;
}

void expect_same_incremental_stats(const IncrementalStats& a,
                                   const IncrementalStats& b, int threads) {
  EXPECT_EQ(a.seeds, b.seeds) << "threads " << threads;
  EXPECT_EQ(a.reevaluations, b.reevaluations) << "threads " << threads;
  EXPECT_EQ(a.flips, b.flips) << "threads " << threads;
  EXPECT_EQ(a.promotions, b.promotions) << "threads " << threads;
  EXPECT_EQ(a.anchor_recomputes, b.anchor_recomputes) << "threads " << threads;
}

/// The default (flat) compute_safety must equal the scalar oracle bit for
/// bit on both deployment models. The fixpoint is unique, so the flip
/// totals must agree too, even though the evaluation orders differ.
TEST(FlatKernel, MatchesScalarOracleAcrossSeedsAndModels) {
  for (std::uint64_t seed : test::property_seeds()) {
    for (DeployModel model :
         {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
      Network net = test::random_network(500, seed, model);
      LabelingStats flat_stats, scalar_stats;
      SafetyInfo flat = compute_safety(net.graph(), net.interest_area(),
                                       nullptr, &flat_stats);
      SafetyInfo scalar = test::compute_safety_scalar(
          net.graph(), net.interest_area(), &scalar_stats);
      EXPECT_EQ(flat, scalar) << "seed " << seed;
      EXPECT_EQ(flat_stats.init_flips, scalar_stats.init_flips);
      EXPECT_EQ(flat_stats.flips, scalar_stats.flips);
      EXPECT_GE(flat_stats.reevaluations, flat_stats.flips);
    }
  }
}

/// Serial kernel vs pool-backed kernel, several worker counts. What is
/// pooled is the zones build (when not yet cached) and the four per-type
/// anchor passes; statuses and anchors must not change.
TEST(FlatKernel, ComputeSafetyIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(1200, seed, DeployModel::kForbiddenAreas);
    SafetyInfo serial = compute_safety(net.graph(), net.interest_area());
    for (int threads : {1, 2, 4}) {
      TaskPool pool(threads);
      SafetyInfo parallel =
          compute_safety(net.graph(), net.interest_area(), &pool);
      EXPECT_EQ(serial, parallel) << "seed " << seed << " threads " << threads;
    }
  }
}

/// A heavy failure wave (400 of 1500 nodes) must produce the same
/// continuation and the same counters serially and on pools of any size
/// (what is pooled is the zones build, when not patched forward, and the
/// anchor pass), and both must equal the from-scratch scalar oracle.
TEST(FlatKernel, FailureUpdaterIdenticalAcrossThreadCounts) {
  Network net = test::random_network(1500, 23, DeployModel::kForbiddenAreas);
  net.force(Network::kNeedsSafety);
  Rng rng(0x5eed);
  std::vector<NodeId> casualties = draw_casualties(net.graph(), rng, 400);

  Network degraded = net.with_failures(casualties);
  ASSERT_TRUE(degraded.has_safety());
  SafetyInfo oracle =
      test::compute_safety_scalar(degraded.graph(), degraded.interest_area());
  EXPECT_EQ(degraded.safety(), oracle);

  SafetyInfo serial = net.safety();
  const IncrementalStats serial_stats = update_safety_after_failures(
      degraded.graph(), degraded.interest_area(), casualties, serial);
  EXPECT_EQ(serial, oracle);

  for (int threads : {2, 4}) {
    TaskPool pool(threads);
    SafetyInfo continued = net.safety();
    const IncrementalStats stats = update_safety_after_failures(
        degraded.graph(), degraded.interest_area(), casualties, continued,
        &pool);
    EXPECT_EQ(continued, oracle) << "threads " << threads;
    expect_same_incremental_stats(stats, serial_stats, threads);
  }
}

/// Whole-field motion (many promotion sources, added and removed edges)
/// through the moves updater: serial == pooled == scalar oracle, with the
/// same counters serially and pooled.
TEST(FlatKernel, MovesUpdaterIdenticalAcrossThreadCounts) {
  Network net = test::random_network(900, 31, DeployModel::kForbiddenAreas);
  net.force(Network::kNeedsSafety);
  Rng rng(0x303e5);
  std::vector<Vec2> moved_positions = jitter_positions(
      net.graph().positions(), net.deployment().field, 14.0, rng);

  Network moved = net.with_moves(moved_positions);
  ASSERT_TRUE(moved.has_safety());
  SafetyInfo oracle =
      test::compute_safety_scalar(moved.graph(), moved.interest_area());
  EXPECT_EQ(moved.safety(), oracle);

  SafetyInfo serial = net.safety();
  const IncrementalStats serial_stats =
      update_safety_after_moves(net.graph(), net.interest_area(),
                                moved.graph(), moved.interest_area(), serial);
  EXPECT_EQ(serial, oracle);

  for (int threads : {2, 3}) {
    TaskPool pool(threads);
    SafetyInfo continued = net.safety();
    const IncrementalStats stats = update_safety_after_moves(
        net.graph(), net.interest_area(), moved.graph(), moved.interest_area(),
        continued, &pool);
    EXPECT_EQ(continued, oracle) << "threads " << threads;
    expect_same_incremental_stats(stats, serial_stats, threads);
  }
}

/// The status fixpoint runs one serial schedule whatever pool is passed, so
/// the kernel's work counters are thread-count invariant. A 2*10^4-node
/// constant-degree FA field (side grows with sqrt(n/600), as in bench_micro)
/// whose demotion worklist holds thousands of pairs at once.
TEST(FlatKernel, LabelingStatsIdenticalAcrossThreadCounts) {
  DeploymentConfig config;
  config.node_count = 20000;
  config.model = DeployModel::kForbiddenAreas;
  const double scale = std::sqrt(config.node_count / 600.0);
  config.field = Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
  config.min_forbidden_extent *= scale;
  config.max_forbidden_extent *= scale;
  config.forbidden_margin *= scale;
  Rng rng(2);
  Network net(deploy(config, rng));

  LabelingStats serial;
  SafetyInfo info =
      compute_safety(net.graph(), net.interest_area(), nullptr, &serial);
  ASSERT_GT(serial.flips, 0u);
  for (int threads : {1, 2, 4}) {
    TaskPool pool(threads);
    LabelingStats pooled;
    EXPECT_EQ(compute_safety(net.graph(), net.interest_area(), &pool, &pooled),
              info)
        << "threads " << threads;
    EXPECT_EQ(pooled.init_flips, serial.init_flips) << "threads " << threads;
    EXPECT_EQ(pooled.flips, serial.flips) << "threads " << threads;
    EXPECT_EQ(pooled.pushes, serial.pushes) << "threads " << threads;
    EXPECT_EQ(pooled.reevaluations, serial.reevaluations)
        << "threads " << threads;
  }
}

/// Staged chains interleaving failure waves and motion epochs: the
/// kernel-continued labeling must equal the scalar oracle at *every*
/// epoch, serially and through a pool-backed Network.
TEST(FlatKernel, StagedFailureAndMoveChainMatchesScalarEveryEpoch) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(420, seed, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);
    TaskPool pool(3);
    Network pooled(net.deployment(), net.edge_band(), &pool);
    pooled.force(Network::kNeedsSafety);
    ASSERT_EQ(net.safety(), pooled.safety()) << "seed " << seed;

    Rng rng(seed ^ 0xc4a1);
    for (int epoch = 0; epoch < 4; ++epoch) {
      if (epoch % 2 == 0) {
        std::vector<NodeId> casualties = draw_casualties(net.graph(), rng, 15);
        net = net.with_failures(casualties);
        pooled = pooled.with_failures(casualties);
      } else {
        const double magnitude = epoch == 1 ? 3.0 : 25.0;
        std::vector<Vec2> moved_positions = jitter_positions(
            net.graph().positions(), net.deployment().field, magnitude, rng);
        net = net.with_moves(moved_positions);
        pooled = pooled.with_moves(moved_positions);
      }
      ASSERT_TRUE(net.has_safety());
      SafetyInfo oracle =
          test::compute_safety_scalar(net.graph(), net.interest_area());
      EXPECT_EQ(net.safety(), oracle)
          << "seed " << seed << " epoch " << epoch << " (serial chain)";
      EXPECT_EQ(pooled.safety(), oracle)
          << "seed " << seed << " epoch " << epoch << " (pooled chain)";
    }
  }
}

/// The quadrant buckets must be exactly the brute-force zone_type filter of
/// each sorted neighbor list, in both directions.
TEST(QuadrantZones, MatchesBruteForceFilter) {
  Network net = test::random_network(300, 5, DeployModel::kForbiddenAreas);
  const UnitDiskGraph& g = net.graph();
  const QuadrantZones& zones = g.zones();
  ASSERT_EQ(zones.size(), g.size());
  for (NodeId u = 0; u < g.size(); ++u) {
    const Vec2 pu = g.position(u);
    for (ZoneType t : kAllZoneTypes) {
      std::vector<NodeId> members, observers;
      for (NodeId v : g.neighbors(u)) {
        if (zone_type(pu, g.position(v)) == t) members.push_back(v);
        if (zone_type(g.position(v), pu) == t) observers.push_back(v);
      }
      auto ms = zones.members(u, t);
      auto os = zones.observers(u, t);
      ASSERT_EQ(std::vector<NodeId>(ms.begin(), ms.end()), members)
          << "node " << u;
      ASSERT_EQ(std::vector<NodeId>(os.begin(), os.end()), observers)
          << "node " << u;
    }
  }
}

/// Patched zones across failure and move epochs (including chains, both
/// the patch branch and the rebuild cutover) must equal a fresh build of
/// the sibling graph.
TEST(QuadrantZones, PatchedEqualsFreshAcrossFailureAndMoveChains) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(350, seed, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);  // builds the base epoch's zones
    ASSERT_TRUE(net.graph().has_zones());
    Rng rng(seed ^ 0x20e5);
    for (int epoch = 0; epoch < 3; ++epoch) {
      if (epoch % 2 == 0) {
        net = net.with_failures(draw_casualties(net.graph(), rng, 12));
      } else {
        net = net.with_moves(jitter_positions(
            net.graph().positions(), net.deployment().field, 8.0, rng));
      }
      ASSERT_TRUE(net.graph().has_zones())
          << "epoch " << epoch << ": sibling did not inherit patched zones";
      EXPECT_EQ(net.graph().zones(), QuadrantZones::build(net.graph()))
          << "seed " << seed << " epoch " << epoch;
    }
  }
}

/// A combined wave — a failure batch AND a move batch applied in one epoch
/// before anything is checked — patches zones through both siblings and
/// continues the labeling through both updaters: patched zones must equal a
/// fresh build and the carried labeling must equal compute_safety.
TEST(QuadrantZones, CombinedFailureAndMoveWavePatchesEqualFresh) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(350, seed, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);
    Rng rng(seed ^ 0xc0b1);
    for (int epoch = 0; epoch < 2; ++epoch) {
      net = net.with_failures(draw_casualties(net.graph(), rng, 10));
      net = net.with_moves(jitter_positions(
          net.graph().positions(), net.deployment().field, 8.0, rng));
      ASSERT_TRUE(net.graph().has_zones())
          << "epoch " << epoch << ": combined wave dropped the patched zones";
      EXPECT_EQ(net.graph().zones(), QuadrantZones::build(net.graph()))
          << "seed " << seed << " epoch " << epoch;
      ASSERT_TRUE(net.has_safety());
      EXPECT_EQ(net.safety(),
                compute_safety(net.graph(), net.interest_area()))
          << "seed " << seed << " epoch " << epoch;
    }
  }
}

/// Parallel zones build is bit-identical to serial.
TEST(QuadrantZones, BuildIdenticalAcrossPoolSizes) {
  Deployment d = test::dense_grid_deployment(700, 9);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  QuadrantZones serial = QuadrantZones::build(g);
  for (int threads : {2, 5}) {
    TaskPool pool(threads);
    EXPECT_EQ(serial, QuadrantZones::build(g, &pool));
  }
}

/// recompute_all_anchors through the kernel (serial and pooled) must leave
/// a fixpoint labeling unchanged: anchors are a pure function of statuses.
TEST(FlatKernel, RecomputeAllAnchorsIsIdempotent) {
  Network net = test::random_network(500, 13, DeployModel::kForbiddenAreas);
  SafetyInfo info = compute_safety(net.graph(), net.interest_area());
  SafetyInfo copy = info;
  recompute_all_anchors(net.graph(), copy);
  EXPECT_EQ(copy, info);
  TaskPool pool(3);
  recompute_all_anchors(net.graph(), copy, &pool);
  EXPECT_EQ(copy, info);
}

}  // namespace
}  // namespace spr
