#include "sim/stream_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "graph/graph_algos.h"
#include "report/serialize.h"
#include "report/sink.h"
#include "support/per_hop_stream.h"
#include "support/stream_json.h"
#include "test_helpers.h"

namespace spr {
namespace {

std::pair<NodeId, NodeId> far_pair(const Network& net, std::uint64_t seed) {
  Rng rng(seed);
  NodeId s = kInvalidNode, d = kInvalidNode;
  double best = -1.0;
  for (int trial = 0; trial < 16; ++trial) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first == kInvalidNode) continue;
    double dist =
        distance(net.graph().position(pair.first), net.graph().position(pair.second));
    if (dist > best) {
      best = dist;
      s = pair.first;
      d = pair.second;
    }
  }
  return {s, d};
}

/// With no world events, the stream is the atomic route repeated: per
/// scheme, every packet walks route(s, d) exactly — same hops, length, and
/// an exact per-hop latency.
TEST(StreamSim, StaticStreamMatchesAtomicRoutePerScheme) {
  Network reference = test::random_network(500, 15, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(reference, 0x15);
  ASSERT_NE(s, kInvalidNode);

  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 8;
  config.packet_interval = 1.0;
  config.hop_delay = 0.25;
  StreamSim sim(test::random_network(500, 15, DeployModel::kForbiddenAreas),
                config);
  StreamStats stats = sim.run();

  auto specs = SweepConfig::paper_schemes();
  ASSERT_EQ(stats.schemes.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const StreamSchemeStats& scheme = stats.schemes[k];
    PathResult atomic = reference.make_router(specs[k].scheme)->route(s, d);
    EXPECT_EQ(scheme.injected, 8u);
    EXPECT_EQ(scheme.label, specs[k].display_label());
    if (atomic.delivered()) {
      EXPECT_EQ(scheme.delivered, 8u) << scheme.label;
      EXPECT_DOUBLE_EQ(scheme.hops.mean(),
                       static_cast<double>(atomic.hops()));
      EXPECT_DOUBLE_EQ(scheme.hops.min(), scheme.hops.max());
      EXPECT_DOUBLE_EQ(scheme.length.mean(), atomic.length);
      // Hop-by-hop timing: h hops at 0.25 virtual seconds each.
      EXPECT_DOUBLE_EQ(scheme.latency.mean(),
                       0.25 * static_cast<double>(atomic.hops()));
      EXPECT_DOUBLE_EQ(scheme.replans.max(), 0.0);
    } else {
      EXPECT_EQ(scheme.delivered, 0u) << scheme.label;
    }
  }
  EXPECT_TRUE(stats.waves.empty());
}

/// A mid-stream blast: outcome counts stay consistent, the wave record
/// carries the incremental relabeling, and the incremental fixpoint
/// matches a from-scratch recompute.
TEST(StreamSim, MidStreamWaveRelabelsIncrementallyAndConsistently) {
  Network net = test::random_network(600, 4, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x44);
  ASSERT_NE(s, kInvalidNode);
  Vec2 mid = midpoint(net.graph().position(s), net.graph().position(d));
  StreamWave wave;
  wave.time = 5.0;
  for (NodeId u = 0; u < net.graph().size(); ++u) {
    if (u == s || u == d) continue;
    if (distance(net.graph().position(u), mid) <= 30.0) {
      wave.casualties.push_back(u);
    }
  }
  ASSERT_FALSE(wave.casualties.empty());

  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 12;
  config.packet_interval = 1.0;
  config.hop_delay = 0.5;  // several packets are mid-flight at t=5
  config.verify_relabeling = true;
  config.waves.push_back(wave);
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_EQ(stats.waves.size(), 1u);
  const WaveRecord& record = stats.waves.front();
  EXPECT_DOUBLE_EQ(record.time, 5.0);
  EXPECT_EQ(record.casualties, wave.casualties.size());
  EXPECT_TRUE(record.verified);
  EXPECT_TRUE(record.matches_full_recompute);
  EXPECT_GT(record.relabel.seeds, 0u);
  // Per-update scratch peak: the wave relabeled, so it allocated.
  EXPECT_GT(record.relabel.arena_high_water, 0u);

  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 12u);
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected)
        << scheme.label;
  }
  // The post-run network is the degraded one.
  EXPECT_FALSE(sim.network().graph().alive(wave.casualties.front()));
}

/// Same (network, config) twice => byte-identical full stream stats.
TEST(StreamSim, RunIsAPureFunctionOfItsInputs) {
  auto run_once = [] {
    Network net = test::random_network(500, 23, DeployModel::kForbiddenAreas);
    auto [s, d] = far_pair(net, 0x23);
    StreamConfig config;
    if (s != kInvalidNode) config.pairs.emplace_back(s, d);
    config.packets = 10;
    config.hop_delay = 0.5;
    StreamWave wave;
    wave.time = 3.0;
    for (NodeId u = 0; u < net.graph().size(); u += 17) {
      if (u != s && u != d) wave.casualties.push_back(u);
    }
    config.waves.push_back(std::move(wave));
    config.mobility_interval = 6.0;  // exercise the re-pin path too
    config.mobility_dt = 15.0;
    StreamSim sim(std::move(net), config);
    return test::stream_full_json(sim.run());
  };
  std::string first = run_once();
  std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

/// No endpoints means no traffic: the run terminates immediately even
/// with mobility enabled (the re-pin loop must not wait for injections
/// that can never happen).
TEST(StreamSim, EmptyPairsTerminatesEvenWithMobility) {
  StreamConfig config;
  config.packets = 10;  // clamped: there is nothing to inject
  config.mobility_interval = 1.0;
  StreamSim sim(test::random_network(200, 3), config);
  StreamStats stats = sim.run();
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 0u);
  }
  EXPECT_EQ(stats.repins, 0u);
}

/// A mobility re-pin continues the snapshot incrementally and records what
/// it did: moved nodes, the edge delta, and the bidirectional relabeling —
/// which, under verify_relabeling, must match a from-scratch
/// compute_safety at every epoch (statuses and anchors).
TEST(StreamSim, RepinContinuesLabelingIncrementallyAndVerified) {
  Network net = test::random_network(500, 61, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x61);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 12;
  config.packet_interval = 1.0;
  config.hop_delay = 0.4;
  config.mobility_interval = 3.0;
  config.mobility_dt = 8.0;
  config.verify_relabeling = true;
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_GT(stats.repins, 0u);
  ASSERT_EQ(stats.repin_records.size(), stats.repins);
  for (const RepinRecord& record : stats.repin_records) {
    EXPECT_GT(record.moved, 0u);
    EXPECT_TRUE(record.verified);
    EXPECT_TRUE(record.matches_full_recompute)
        << "re-pin at t=" << record.time
        << ": incremental with_moves labeling diverged from compute_safety";
    EXPECT_GT(record.edges_added + record.edges_removed, 0u);
  }
}

/// Injection at a source killed by an earlier wave is a *defined* drop:
/// every scheme's copy is counted kNodeFailed, never UB.
TEST(StreamSim, InjectionAtDeadSourceCountsAsNodeFailed) {
  Network net = test::random_network(500, 71, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x71);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 6;
  config.packet_interval = 1.0;
  config.hop_delay = 10.0;  // nothing delivers before the wave
  StreamWave wave;
  wave.time = 2.5;  // injections 0,1,2 pre-wave; 3,4,5 at a dead source
  wave.casualties.push_back(s);
  config.waves.push_back(wave);
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_EQ(stats.waves.size(), 1u);
  EXPECT_EQ(stats.waves.front().casualties, 1u);
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 6u);
    // Packets 3..5 inject at the dead source; packets 0..2 were at most one
    // hop out with hop_delay 10, so their copies died with the carrier or
    // re-planned — either way the accounting stays closed.
    EXPECT_GE(scheme.node_failed, 3u) << scheme.label;
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected)
        << scheme.label;
  }
}

/// An out-of-range source id is equally defined: every copy drops as
/// kNodeFailed (and an out-of-range destination cannot crash either).
TEST(StreamSim, OutOfRangeEndpointsAreDefinedDrops) {
  Network net = test::random_network(300, 9);
  NodeId far_id = static_cast<NodeId>(net.graph().size() + 17);
  StreamConfig config;
  config.pairs.emplace_back(far_id, NodeId{3});
  config.pairs.emplace_back(NodeId{3}, far_id);
  config.packets = 4;
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 4u);
    // Packets 0 and 2 (dead source) drop; 1 and 3 route toward a
    // nonexistent destination and end in a defined non-delivered outcome.
    EXPECT_GE(scheme.node_failed, 2u);
    EXPECT_EQ(scheme.delivered, 0u);
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected);
  }
}

/// The same-timestamp tie: an injection due exactly at a wave's timestamp
/// fires *before* the wave (FIFO push order — injections are scheduled
/// first), sees the pre-wave substrate, and its copies are then
/// immediately dropped by the wave when the wave kills their carrier.
TEST(StreamSim, InjectionAtWaveTimestampFiresBeforeTheWave) {
  Network net = test::random_network(500, 83, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x83);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 3;
  config.packet_interval = 1.0;
  config.hop_delay = 10.0;  // injected copies sit at the source
  StreamWave wave;
  wave.time = 2.0;  // exactly the third packet's injection time
  wave.casualties.push_back(s);
  config.waves.push_back(wave);
  const std::size_t n_schemes = SweepConfig::paper_schemes().size();
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_EQ(stats.waves.size(), 1u);
  const WaveRecord& record = stats.waves.front();
  // The t=2 injection ran first: its copies (and the two earlier packets',
  // all still at the source) were alive in-flight when the wave hit, so
  // the wave — not the injection handler — dropped them.
  EXPECT_EQ(record.packets_dropped, 3 * n_schemes);
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 3u);
    EXPECT_EQ(scheme.node_failed, 3u) << scheme.label;
  }
}

/// A mobility re-pin rebuilds the snapshot but must not resurrect nodes
/// killed by an earlier failure wave.
TEST(StreamSim, RepinKeepsWaveCasualtiesDead) {
  Network net = test::random_network(400, 27);
  auto [s, d] = far_pair(net, 0x27);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 12;
  config.packet_interval = 1.0;
  config.hop_delay = 0.4;
  config.mobility_interval = 4.5;  // re-pins fire after the wave
  config.mobility_dt = 10.0;
  StreamWave wave;
  wave.time = 2.0;
  for (NodeId u = 0; u < 30; ++u) {
    if (u != s && u != d) wave.casualties.push_back(u);
  }
  config.waves.push_back(wave);
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();
  ASSERT_GT(stats.repins, 0u);
  for (NodeId u : wave.casualties) {
    EXPECT_FALSE(sim.network().graph().alive(u)) << "node " << u
                                                 << " came back to life";
  }
}

/// Mobility re-pins happen while traffic remains and stop afterwards (the
/// event queue drains), and outcome accounting stays consistent.
TEST(StreamSim, MobilityRepinsRebuildTheSnapshot) {
  Network net = test::random_network(450, 31);
  auto [s, d] = far_pair(net, 0x31);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 10;
  config.packet_interval = 1.0;
  config.hop_delay = 0.4;
  config.mobility_interval = 2.5;
  config.mobility_dt = 10.0;
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();
  EXPECT_GT(stats.repins, 0u);
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 10u);
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected);
  }
}

/// The acceptance contract of the flight-record engine: everything in
/// StreamStats except `events` is byte-identical to the per-hop reference
/// (tests/support/per_hop_stream.h) — across seeds, failure waves, mobility re-pins, their
/// combination, and thread counts — and tick batching pops strictly fewer
/// heap events than one-event-per-hop.
TEST(StreamSim, FlightRecordEngineMatchesPerHopReferenceByteForByte) {
  struct Case {
    std::uint64_t seed;
    bool waves;
    bool mobility;
  };
  const Case cases[] = {
      {23, false, false}, {23, true, false}, {23, false, true},
      {23, true, true},   {61, true, true},  {83, false, true},
  };
  for (const Case& c : cases) {
    auto run = [&c](bool per_hop, int threads, std::size_t* events) {
      Network net =
          test::random_network(500, c.seed, DeployModel::kForbiddenAreas);
      auto [s, d] = far_pair(net, c.seed);
      StreamConfig config;
      if (s != kInvalidNode) config.pairs.emplace_back(s, d);
      config.packets = 10;
      config.packet_interval = 1.0;
      config.hop_delay = 0.5;
      if (c.waves) {
        StreamWave wave;
        wave.time = 3.0;
        for (NodeId u = 0; u < net.graph().size(); u += 17) {
          if (u != s && u != d) wave.casualties.push_back(u);
        }
        config.waves.push_back(std::move(wave));
      }
      if (c.mobility) {
        config.mobility_interval = 2.5;
        config.mobility_dt = 10.0;
      }
      config.threads = threads;
      StreamStats stats =
          per_hop ? test::run_stream_per_hop(std::move(net), config)
                  : StreamSim(std::move(net), config).run();
      *events = stats.events;
      stats.events = 0;  // the one field the engines legitimately differ on
      return test::stream_full_json(stats);
    };
    std::size_t ref_events = 0;
    std::size_t tick_events = 0;
    std::size_t threaded_events = 0;
    std::string ref = run(true, 1, &ref_events);
    std::string tick = run(false, 1, &tick_events);
    std::string threaded = run(false, 4, &threaded_events);
    const char* shape = c.waves ? (c.mobility ? "waves+mobility" : "waves")
                                : (c.mobility ? "mobility" : "plain");
    EXPECT_EQ(tick, ref) << "seed " << c.seed << " " << shape;
    EXPECT_EQ(threaded, tick) << "seed " << c.seed << " " << shape
                              << ": thread count changed the report";
    EXPECT_EQ(threaded_events, tick_events) << "seed " << c.seed << " "
                                            << shape;
    // With a shared hop_delay the dyadic tick times collide across flights,
    // so batching must collapse the heap traffic, not just relabel it.
    EXPECT_LT(tick_events, ref_events) << "seed " << c.seed << " " << shape;
  }
}

/// The per-epoch hop oracle fanned out over the pool: with >= 16 pairs the
/// 4-thread run splits each epoch's hop_distances into several blocks, and
/// it must still match the per-hop reference's one-directional BFS per
/// pair byte for byte — including a pair whose sink dies in a wave, so
/// every later epoch pins that pair's optimum at 0 (unreachable).
TEST(StreamSim, PooledEpochOracleMatchesPerHopReferenceOverManyPairs) {
  for (std::uint64_t seed : {23u, 61u}) {
    auto run = [seed](bool per_hop, int threads) {
      Network net =
          test::random_network(600, seed, DeployModel::kForbiddenAreas);
      Rng rng(seed);
      StreamConfig config;
      for (int trial = 0; trial < 200 && config.pairs.size() < 20; ++trial) {
        auto pair = net.random_connected_interior_pair(rng);
        if (pair.first != kInvalidNode) config.pairs.push_back(pair);
      }
      config.packets = 80;
      config.packet_interval = 0.125;  // every pair injects in every epoch
      config.hop_delay = 0.5;
      std::vector<bool> endpoint(net.graph().size(), false);
      for (const auto& [s, d] : config.pairs) endpoint[s] = endpoint[d] = true;
      // Two waves, three epochs; the first wave also kills a sink. (No
      // re-pins: the copies bound for the dead sink walk until their TTL,
      // and re-pins keep firing while any copy is in flight.)
      for (int w = 0; w < 2; ++w) {
        StreamWave wave;
        wave.time = 3.0 * (w + 1);
        if (w == 0) wave.casualties.push_back(config.pairs.front().second);
        for (NodeId u = static_cast<NodeId>(w); u < net.graph().size();
             u += 19) {
          if (!endpoint[u]) wave.casualties.push_back(u);
        }
        config.waves.push_back(std::move(wave));
      }
      config.threads = threads;
      StreamStats stats =
          per_hop ? test::run_stream_per_hop(std::move(net), config)
                  : StreamSim(std::move(net), config).run();
      stats.events = 0;  // the one field the engines legitimately differ on
      return stats;
    };
    StreamStats ref = run(true, 1);
    std::string serial = test::stream_full_json(run(false, 1));
    std::string pooled = test::stream_full_json(run(false, 4));
    EXPECT_EQ(serial, test::stream_full_json(ref)) << "seed " << seed;
    EXPECT_EQ(pooled, serial) << "seed " << seed
                              << ": thread count changed the report";
    // The oracle was live: delivered copies were measured against it.
    std::size_t stretched = 0;
    for (const StreamSchemeStats& scheme : ref.schemes) {
      stretched += scheme.stretch_hops.count();
    }
    EXPECT_GT(stretched, 0u) << "seed " << seed;
  }
}

/// The group-trace paths against the per-hop reference: a duplicate pair
/// (two groups, one walk), copies that park from a trace at a biting wave
/// and are re-planned from their trail point, copies that park at a wave
/// that kills nothing (already-dead and out-of-range ids) or at an empty
/// one and must rebuild their header at the next tick, and a re-pin —
/// across seeds, two hop delays (0.3 keeps the hop instants off the
/// binary grid) and thread counts.
TEST(StreamSim, GroupTraceMatchesPerHopReferenceAcrossBarriers) {
  for (std::uint64_t seed : {23u, 61u, 83u}) {
    for (double hop_delay : {0.5, 0.3}) {
      auto run = [seed, hop_delay](bool per_hop, int threads) {
        Network net =
            test::random_network(500, seed, DeployModel::kForbiddenAreas);
        Rng rng(seed);
        StreamConfig config;
        for (int trial = 0; trial < 100 && config.pairs.size() < 6;
             ++trial) {
          auto pair = net.random_connected_interior_pair(rng);
          if (pair.first != kInvalidNode) config.pairs.push_back(pair);
        }
        config.pairs.push_back(config.pairs.front());
        config.packets = 120;
        config.packet_interval = 0.1;
        config.hop_delay = hop_delay;
        std::vector<bool> endpoint(net.graph().size(), false);
        for (const auto& [s, d] : config.pairs) {
          endpoint[s] = endpoint[d] = true;
        }
        auto biting = [&](double time, NodeId first) {
          StreamWave wave;
          wave.time = time;
          for (NodeId u = first; u < net.graph().size(); u += 17) {
            if (!endpoint[u]) wave.casualties.push_back(u);
          }
          return wave;
        };
        StreamWave first = biting(2.0, 0);
        StreamWave no_op = first;  // every casualty is already dead
        no_op.time = 4.0;
        no_op.casualties.push_back(
            static_cast<NodeId>(net.graph().size() + 5));
        StreamWave empty;
        empty.time = 5.5;
        config.waves = {first, no_op, empty, biting(7.0, 8)};
        config.mobility_interval = 9.0;
        config.mobility_dt = 10.0;
        config.threads = threads;
        StreamStats stats =
            per_hop ? test::run_stream_per_hop(std::move(net), config)
                    : StreamSim(std::move(net), config).run();
        stats.events = 0;  // the one field the engines legitimately differ on
        return stats;
      };
      StreamStats ref = run(true, 1);
      std::string serial = test::stream_full_json(run(false, 1));
      std::string pooled = test::stream_full_json(run(false, 4));
      EXPECT_EQ(serial, test::stream_full_json(ref))
          << "seed " << seed << " hop_delay " << hop_delay;
      EXPECT_EQ(pooled, serial) << "seed " << seed << " hop_delay "
                                << hop_delay
                                << ": thread count changed the report";
      // Every barrier kind fired with copies in flight.
      ASSERT_EQ(ref.waves.size(), 4u);
      EXPECT_GT(ref.waves[0].packets_in_flight, 0u) << "seed " << seed;
      EXPECT_EQ(ref.waves[1].casualties, 0u) << "seed " << seed;
      EXPECT_EQ(ref.waves[2].casualties, 0u) << "seed " << seed;
      EXPECT_GT(ref.waves[3].packets_in_flight, 0u) << "seed " << seed;
      EXPECT_GT(ref.repins, 0u) << "seed " << seed;
    }
  }
}

/// The old O(n * |pairs|) candidate scan of spread_failure_waves, kept as
/// the reference for the endpoint bit vector that replaced it.
std::vector<StreamWave> spread_failure_waves_by_scan(
    const UnitDiskGraph& g,
    std::span<const std::pair<NodeId, NodeId>> endpoints, double fraction,
    int waves, double span, Rng& rng) {
  std::vector<StreamWave> out;
  std::size_t total = static_cast<std::size_t>(
      std::max(0.0, fraction) * static_cast<double>(g.size()) + 0.5);
  if (total == 0 || waves <= 0) return out;
  std::vector<NodeId> candidates;
  for (NodeId u = 0; u < g.size(); ++u) {
    bool endpoint = false;
    for (const auto& [s, d] : endpoints) endpoint |= (u == s || u == d);
    if (!endpoint) candidates.push_back(u);
  }
  total = std::min(total, candidates.size());
  for (int w = 0; w < waves; ++w) {
    StreamWave wave;
    wave.time =
        span * static_cast<double>(w + 1) / static_cast<double>(waves + 1);
    std::size_t share =
        total / static_cast<std::size_t>(waves) +
        (static_cast<std::size_t>(w) < total % static_cast<std::size_t>(waves)
             ? 1
             : 0);
    for (std::size_t c = 0; c < share && !candidates.empty(); ++c) {
      std::size_t pick = rng.next_below(candidates.size());
      wave.casualties.push_back(candidates[pick]);
      candidates[pick] = candidates.back();
      candidates.pop_back();
    }
    out.push_back(std::move(wave));
  }
  return out;
}

TEST(SpreadFailureWaves, EqualsTheEndpointScan) {
  Network net = test::random_network(500, 19, DeployModel::kForbiddenAreas);
  const UnitDiskGraph& g = net.graph();
  const NodeId n = static_cast<NodeId>(g.size());
  Rng pair_rng(19);
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  for (int i = 0; i < 12; ++i) {
    endpoints.emplace_back(static_cast<NodeId>(pair_rng.next_below(n)),
                           static_cast<NodeId>(pair_rng.next_below(n)));
  }
  endpoints.push_back(endpoints.front());       // a duplicate pair
  endpoints.emplace_back(n + 3, 0);             // out-of-range source
  endpoints.emplace_back(n - 1, kInvalidNode);  // out-of-range sink
  struct Shape {
    double fraction;
    int waves;
  };
  for (const Shape shape : {Shape{0.05, 2}, Shape{0.3, 5}, Shape{1.0, 3},
                            Shape{0.0, 2}, Shape{0.1, 0}}) {
    for (std::size_t cut : {std::size_t{0}, std::size_t{3}, endpoints.size()}) {
      std::span<const std::pair<NodeId, NodeId>> ends(endpoints.data(), cut);
      Rng a(77), b(77);
      auto got = spread_failure_waves(g, ends, shape.fraction, shape.waves,
                                      20.0, a);
      auto want = spread_failure_waves_by_scan(g, ends, shape.fraction,
                                               shape.waves, 20.0, b);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t w = 0; w < got.size(); ++w) {
        EXPECT_EQ(got[w].time, want[w].time);
        EXPECT_EQ(got[w].casualties, want[w].casualties)
            << "fraction " << shape.fraction << " wave " << w << " cut "
            << cut;
      }
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "rng streams diverged";
    }
  }
}

/// A NaN, infinite or negative time in StreamConfig — a wave's included —
/// and a negative packet count are named by validate(); zero stays legal.
TEST(StreamConfigValidate, NamesTheBadField) {
  const std::pair<double StreamConfig::*, const char*> fields[] = {
      {&StreamConfig::hop_delay, "hop_delay"},
      {&StreamConfig::packet_interval, "packet_interval"},
      {&StreamConfig::mobility_interval, "mobility_interval"},
      {&StreamConfig::mobility_dt, "mobility_dt"},
  };
  EXPECT_EQ(StreamConfig{}.validate(), "");
  for (const auto& [field, name] : fields) {
    StreamConfig zero;
    zero.*field = 0.0;
    EXPECT_EQ(zero.validate(), "") << name;
    for (double value : {std::numeric_limits<double>::quiet_NaN(), -0.25,
                         std::numeric_limits<double>::infinity()}) {
      StreamConfig bad;
      bad.*field = value;
      EXPECT_NE(bad.validate().find(name), std::string::npos)
          << name << " = " << value;
    }
  }
  for (double value : {std::numeric_limits<double>::quiet_NaN(), -0.25,
                       std::numeric_limits<double>::infinity()}) {
    StreamConfig bad;
    bad.waves.resize(3);
    bad.waves[0].time = 1.0;
    bad.waves[2].time = value;
    EXPECT_NE(bad.validate().find("waves[2].time"), std::string::npos)
        << "waves[2].time = " << value;
  }
  StreamConfig zero_waves;
  zero_waves.waves.resize(2);  // both at time 0
  EXPECT_EQ(zero_waves.validate(), "");
  StreamConfig no_packets;
  no_packets.packets = 0;
  EXPECT_EQ(no_packets.validate(), "");
  StreamConfig negative_packets;
  negative_packets.packets = -3;
  EXPECT_NE(negative_packets.validate().find("packets"), std::string::npos);
}

/// Builds a StreamSim over a small network with one time field broken.
void construct_with(double StreamConfig::*field, double value) {
  StreamConfig config;
  config.pairs.emplace_back(NodeId{1}, NodeId{2});
  config.packets = 5;
  config.*field = value;
  StreamSim sim(test::random_network(300, 5), config);
}

TEST(StreamConfigValidateDeathTest, HopDelay) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(construct_with(&StreamConfig::hop_delay,
                              std::numeric_limits<double>::quiet_NaN()),
               "hop_delay");
  EXPECT_DEATH(construct_with(&StreamConfig::hop_delay, -0.25), "hop_delay");
}

TEST(StreamConfigValidateDeathTest, PacketInterval) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(construct_with(&StreamConfig::packet_interval,
                              std::numeric_limits<double>::quiet_NaN()),
               "packet_interval");
  EXPECT_DEATH(construct_with(&StreamConfig::packet_interval, -1.0),
               "packet_interval");
}

TEST(StreamConfigValidateDeathTest, MobilityInterval) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(construct_with(&StreamConfig::mobility_interval,
                              std::numeric_limits<double>::quiet_NaN()),
               "mobility_interval");
  EXPECT_DEATH(construct_with(&StreamConfig::mobility_interval, -2.0),
               "mobility_interval");
}

TEST(StreamConfigValidateDeathTest, MobilityDt) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(construct_with(&StreamConfig::mobility_dt,
                              std::numeric_limits<double>::infinity()),
               "mobility_dt");
  EXPECT_DEATH(construct_with(&StreamConfig::mobility_dt, -0.5),
               "mobility_dt");
}

TEST(StreamConfigValidateDeathTest, WaveTime) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto construct_with_wave_at = [](double time) {
    StreamConfig config;
    config.pairs.emplace_back(NodeId{1}, NodeId{2});
    config.packets = 5;
    StreamWave wave;
    wave.time = time;
    config.waves.push_back(wave);
    StreamSim sim(test::random_network(300, 5), config);
  };
  EXPECT_DEATH(construct_with_wave_at(std::numeric_limits<double>::quiet_NaN()),
               "waves\\[0\\]\\.time");
  EXPECT_DEATH(construct_with_wave_at(-1.0), "waves\\[0\\]\\.time");
}

TEST(StreamConfigValidateDeathTest, NegativePackets) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto construct_with_packets = [](int packets) {
    StreamConfig config;
    config.pairs.emplace_back(NodeId{1}, NodeId{2});
    config.packets = packets;
    StreamSim sim(test::random_network(300, 5), config);
  };
  EXPECT_DEATH(construct_with_packets(-1), "packets");
}

/// The streaming-delivery scenario's JSON report is byte-identical across
/// reruns and across thread counts (the acceptance criterion behind
/// SPR_SEED determinism).
TEST(StreamingDeliveryScenario, JsonReportIdenticalSerialVsThreaded) {
  auto render = [](int threads) {
    ScenarioOptions opts;
    opts.networks = 1;
    opts.pairs = 6;
    opts.threads = threads;
    const Scenario* scenario =
        ScenarioSuite::builtin().find("streaming-delivery");
    EXPECT_NE(scenario, nullptr);
    ScenarioReport report;
    report.scenario = scenario->name;
    EXPECT_EQ(scenario->build(opts, report), 0);
    return JsonSink::render(report);
  };
  std::string serial = render(1);
  std::string threaded = render(4);
  std::string threaded_again = render(4);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(threaded, threaded_again);
}

/// The mobility-rate scenario's JSON report is byte-identical across
/// reruns and across thread counts, like streaming-delivery.
TEST(MobilityRateScenario, JsonReportIdenticalSerialVsThreaded) {
  auto render = [](int threads) {
    ScenarioOptions opts;
    opts.networks = 1;
    opts.pairs = 6;
    opts.threads = threads;
    const Scenario* scenario = ScenarioSuite::builtin().find("mobility-rate");
    EXPECT_NE(scenario, nullptr);
    ScenarioReport report;
    report.scenario = scenario->name;
    EXPECT_EQ(scenario->build(opts, report), 0);
    return JsonSink::render(report);
  };
  std::string serial = render(1);
  std::string threaded = render(4);
  std::string threaded_again = render(4);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(threaded, threaded_again);
}

}  // namespace
}  // namespace spr
