/// \file bench_micro.cpp
/// google-benchmark microbenchmarks for the substrate: unit-disk graph
/// construction, planarization, safety labeling (centralized fixpoint and
/// distributed protocol), BOUNDHOLE, per-packet routing of each scheme, and
/// the streaming simulator with its per-epoch hop oracle.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "core/network.h"
#include "deploy/deployment.h"
#include "graph/graph_algos.h"
#include "graph/quadrant_csr.h"
#include "mobility/waypoint.h"
#include "report/serialize.h"
#include "safety/distributed.h"
#include "sim/stream_sim.h"
#include "support/safety_oracles.h"
#include "util/task_pool.h"

namespace {

using namespace spr;

Deployment make_deployment(int n, DeployModel model) {
  DeploymentConfig config;
  config.node_count = n;
  config.model = model;
  Rng rng(1234);
  return deploy(config, rng);
}

/// A deployment whose field side grows with sqrt(n/600), holding the mean
/// degree at the paper's default (~18.8) so per-node work is comparable
/// across sizes; forbidden areas scale with the field so holes stay
/// proportionally sized.
Deployment make_scaled_deployment(int n, DeployModel model) {
  DeploymentConfig config;
  config.node_count = n;
  config.model = model;
  const double scale = std::sqrt(static_cast<double>(n) / 600.0);
  if (scale > 1.0) {
    config.field = Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
    config.min_forbidden_extent *= scale;
    config.max_forbidden_extent *= scale;
    config.forbidden_margin *= scale;
  }
  Rng rng(1234);
  return deploy(config, rng);
}

void BM_UnitDiskBuild(benchmark::State& state) {
  Deployment dep = make_deployment(static_cast<int>(state.range(0)),
                                   DeployModel::kIdeal);
  for (auto _ : state) {
    UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_UnitDiskBuild)->Arg(400)->Arg(800);

void BM_GabrielOverlay(benchmark::State& state) {
  Deployment dep = make_deployment(static_cast<int>(state.range(0)),
                                   DeployModel::kIdeal);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    PlanarOverlay overlay(g);
    benchmark::DoNotOptimize(overlay.edge_count());
  }
}
BENCHMARK(BM_GabrielOverlay)->Arg(400)->Arg(800);

/// The safety-labeling fixpoint + anchor pass (safety/flat_kernel.h) at
/// paper sizes and at 10^4-10^5 nodes (constant-degree scaled fields). The
/// quadrant CSR is warmed outside the loop — it is built once per topology
/// epoch in every real consumer, so steady-state labeling cost is what the
/// kernel pays on top of it. Three variants over the same graphs:
///
///  * BM_SafetyLabeling        — the flat kernel, serial (the default path);
///  * BM_SafetyLabelingScalar  — the per-node tuple oracle it replaced;
///  * BM_SafetyLabelingParallel — the flat kernel on a 4-worker pool: the
///    status fixpoint stays one serial FIFO schedule and only the four
///    per-type anchor passes fan out (the zones are warm). Pooled demotion
///    rounds were slower than the serial drain at 10^6 nodes on 4 vCPU;
///    the anchor pass is the pooled part that pays (flat_kernel.h).
///
/// `flips`/`pushes` counters expose the kernel's work volume (identical
/// between flat and scalar at the same size: the fixpoint is unique, and
/// identical between serial and pooled: the schedule is the same).
enum class LabelMode { kFlat, kScalar, kParallel };

void safety_labeling_bench(benchmark::State& state, LabelMode mode) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  g.zones();  // once-per-epoch structure: warm it so the loop times labeling
  TaskPool pool(4);
  LabelingStats stats;
  for (auto _ : state) {
    SafetyInfo info =
        mode == LabelMode::kScalar
            ? test::compute_safety_scalar(g, area, &stats)
            : compute_safety(g, area,
                             mode == LabelMode::kParallel ? &pool : nullptr,
                             &stats);
    benchmark::DoNotOptimize(info.unsafe_node_count());
  }
  state.counters["flips"] = static_cast<double>(stats.init_flips + stats.flips);
  state.counters["pushes"] = static_cast<double>(stats.pushes);
}

void BM_SafetyLabeling(benchmark::State& state) {
  safety_labeling_bench(state, LabelMode::kFlat);
}
void BM_SafetyLabelingScalar(benchmark::State& state) {
  safety_labeling_bench(state, LabelMode::kScalar);
}
void BM_SafetyLabelingParallel(benchmark::State& state) {
  safety_labeling_bench(state, LabelMode::kParallel);
}
BENCHMARK(BM_SafetyLabeling)->Arg(400)->Arg(800)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SafetyLabelingScalar)->Arg(400)->Arg(800)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SafetyLabelingParallel)->Arg(10000)->Arg(100000);

/// Building the quadrant CSR itself (the warmed-out cost above): the
/// once-per-epoch price of the flat kernel's substrate.
void BM_QuadrantZonesBuild(benchmark::State& state) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    QuadrantZones zones = QuadrantZones::build(g);
    benchmark::DoNotOptimize(zones.size());
  }
}
BENCHMARK(BM_QuadrantZonesBuild)->Arg(10000)->Arg(100000);

/// One failure wave (1% of the nodes) on a warm 10^4-node labeling: full
/// recompute on the degraded graph (Arg 0) vs the incremental continuation
/// through update_safety_after_failures (Arg 1). The degraded graph and its
/// patched zones are prepared outside the loop; the incremental arm's
/// per-iteration SafetyInfo copy is part of the price it pays in real use.
void BM_IncrementalFailureWave(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  Deployment dep = make_scaled_deployment(10000, DeployModel::kForbiddenAreas);
  Network net(dep);
  net.force(Network::kNeedsSafety);
  Rng rng(5);
  std::vector<NodeId> casualties;
  for (int i = 0; i < 100; ++i) {
    NodeId u = static_cast<NodeId>(rng.next_below(net.graph().size()));
    if (net.graph().alive(u)) casualties.push_back(u);
  }
  Network degraded = net.with_failures(casualties);
  const SafetyInfo& base = net.safety();
  IncrementalStats last{};
  for (auto _ : state) {
    if (incremental) {
      SafetyInfo info = base;
      last = update_safety_after_failures(degraded.graph(),
                                          degraded.interest_area(), casualties,
                                          info);
      benchmark::DoNotOptimize(info.unsafe_node_count());
    } else {
      SafetyInfo info =
          compute_safety(degraded.graph(), degraded.interest_area());
      benchmark::DoNotOptimize(info.unsafe_node_count());
    }
  }
  if (incremental) {
    state.counters["seeds"] = static_cast<double>(last.seeds);
    state.counters["flips"] = static_cast<double>(last.flips);
  }
}
BENCHMARK(BM_IncrementalFailureWave)->Arg(0)->Arg(1);

/// One localized 1% re-pin on a labeled scaled FA world (1% of the nodes
/// each drift up to 8 m) through update_safety_after_moves. Args are
/// {nodes, pooled}: serial (0) or on a 4-worker pool (1), which fans out
/// the four per-type anchor passes. The moved graph (with_moves patches the
/// zones the base labeling built), its interest area and the per-iteration
/// copy of the base labeling stay outside the timed region.
void BM_MovesUpdater(benchmark::State& state) {
  const bool pooled = state.range(1) != 0;
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph before(dep.positions, dep.radio_range, dep.field);
  InterestArea area_before(before, before.range());
  const SafetyInfo base = compute_safety(before, area_before);
  Rng rng(11);
  std::vector<Vec2> moved = before.positions();
  for (std::size_t k = 0; k < moved.size() / 100; ++k) {
    const auto u = static_cast<NodeId>(rng.next_below(moved.size()));
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double radius = rng.uniform(0.0, 8.0);
    moved[u].x = std::clamp(moved[u].x + radius * std::cos(angle),
                            dep.field.lo().x, dep.field.hi().x);
    moved[u].y = std::clamp(moved[u].y + radius * std::sin(angle),
                            dep.field.lo().y, dep.field.hi().y);
  }
  UnitDiskGraph after = before.with_moves(moved);
  InterestArea area_after(after, after.range());
  TaskPool pool(4);
  IncrementalStats last{};
  for (auto _ : state) {
    state.PauseTiming();
    SafetyInfo info = base;
    state.ResumeTiming();
    last = update_safety_after_moves(before, area_before, after, area_after,
                                     info, pooled ? &pool : nullptr);
    benchmark::DoNotOptimize(info.unsafe_node_count());
  }
  state.counters["seeds"] = static_cast<double>(last.seeds);
  state.counters["flips"] = static_cast<double>(last.flips);
  state.counters["promotions"] = static_cast<double>(last.promotions);
}
BENCHMARK(BM_MovesUpdater)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kMillisecond);

/// The interest-area classification (deploy/interest_area.h) over a
/// constant-degree scaled FA field: the hull plus the edge-band test, where
/// nodes deep inside the hull skip the exact boundary distances.
void BM_InterestArea(benchmark::State& state) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    InterestArea area(g, g.range());
    benchmark::DoNotOptimize(area.interior_nodes().size());
  }
}
BENCHMARK(BM_InterestArea)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

/// One whole Network::with_failures for a 1% wave on a labeled scaled FA
/// world: the patched adjacency and quadrant view, the carried interest
/// area, the labeling copy and the incremental update together.
void BM_NetworkFailureWave(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Network net(make_scaled_deployment(n, DeployModel::kForbiddenAreas));
  net.force(Network::kNeedsSafety);
  Rng rng(5);
  std::vector<NodeId> casualties;
  for (int i = 0; i < n / 100; ++i) {
    casualties.push_back(static_cast<NodeId>(rng.next_below(net.graph().size())));
  }
  for (auto _ : state) {
    Network degraded = net.with_failures(casualties);
    benchmark::DoNotOptimize(degraded.safety().unsafe_node_count());
  }
}
BENCHMARK(BM_NetworkFailureWave)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_DistributedSafety(benchmark::State& state) {
  Deployment dep = make_deployment(static_cast<int>(state.range(0)),
                                   DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  for (auto _ : state) {
    auto result = compute_safety_distributed(g, area);
    benchmark::DoNotOptimize(result.stats.broadcasts);
  }
}
BENCHMARK(BM_DistributedSafety)->Arg(400)->Arg(800);

/// GF's BOUNDHOLE precomputation (stuck detection plus every boundary walk)
/// on scaled FA fields; the 10^4 arm shows how the orphan walks scale.
void BM_BoundHole(benchmark::State& state) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    BoundHoleInfo info(g);
    benchmark::DoNotOptimize(info.stuck_count());
  }
}
BENCHMARK(BM_BoundHole)->Arg(400)->Arg(800)->Arg(10000)->Unit(benchmark::kMillisecond);

void route_scheme_bench(benchmark::State& state, Scheme scheme) {
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 99;
  Network net = Network::create(config);
  auto router = net.make_router(scheme);
  Rng rng(7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first != kInvalidNode) pairs.push_back(pair);
  }
  if (pairs.empty()) {
    state.SkipWithError("no connected interior pairs");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto [s, d] = pairs[i++ % pairs.size()];
    PathResult r = router->route(s, d);
    benchmark::DoNotOptimize(r.hops());
  }
}

void BM_RouteGf(benchmark::State& state) { route_scheme_bench(state, Scheme::kGf); }
void BM_RouteLgf(benchmark::State& state) { route_scheme_bench(state, Scheme::kLgf); }
void BM_RouteSlgf(benchmark::State& state) { route_scheme_bench(state, Scheme::kSlgf); }
void BM_RouteSlgf2(benchmark::State& state) { route_scheme_bench(state, Scheme::kSlgf2); }
BENCHMARK(BM_RouteGf);
BENCHMARK(BM_RouteLgf);
BENCHMARK(BM_RouteSlgf);
BENCHMARK(BM_RouteSlgf2);

/// The sweep cells' stretch oracle (`OracleBatch`: one bidirectional BFS
/// and one A* search per pair) over 64 connected interior pairs of a
/// 600-node field.
void BM_SweepOracle(benchmark::State& state) {
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.seed = 99;
  Network net = Network::create(config);
  Rng rng(8);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first != kInvalidNode) pairs.push_back(pair);
  }
  if (pairs.empty()) {
    state.SkipWithError("no connected interior pairs");
    return;
  }
  for (auto _ : state) {
    OracleBatch oracles(net.graph(), pairs);
    benchmark::DoNotOptimize(oracles.length_optimal(0));
  }
}
BENCHMARK(BM_SweepOracle);

/// Cost of the slice serialization round trip (report/serialize.h): one
/// sweep cell's full aggregates to JSON text, parsed back, deserialized.
/// This bounds the per-cell overhead the distributed sweep path adds on
/// top of the computation itself.
void BM_CellResultJsonRoundTrip(benchmark::State& state) {
  SweepConfig config;
  config.node_counts = {600};
  config.networks_per_point = 1;
  config.pairs_per_network = 20;
  config.threads = 1;
  config.schemes = SweepConfig::paper_schemes();
  CellResult cell = run_sweep_cell(config, 600, 0);
  for (auto _ : state) {
    JsonValue parsed;
    bool ok = JsonValue::parse(to_json(cell).dump(), parsed);
    CellResult decoded;
    ok = ok && from_json(parsed, decoded);
    if (!ok) {
      state.SkipWithError("round trip failed");
      return;
    }
    benchmark::DoNotOptimize(decoded.size());
  }
}
BENCHMARK(BM_CellResultJsonRoundTrip);

/// One mobility re-pin epoch, full rebuild (Arg 0: fresh Network + forced
/// safety, the pre-with_moves path) vs incremental (Arg 1:
/// Network::with_moves — relocated grid, patched adjacency, bidirectional
/// safety continuation). Both process the same waypoint trajectory; the
/// delta is the ROADMAP's rebuild-vs-incremental re-pin datapoint.
void BM_MobilityRepin(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 42;
  Network net = Network::create(config);
  net.force(Network::kNeedsSafety);
  WaypointConfig wc;
  wc.field = net.deployment().field;
  wc.max_speed_mps = 1.5;
  WaypointModel model(net.deployment().positions, wc, Rng(42));
  for (auto _ : state) {
    model.advance(4.0);
    if (incremental) {
      net = net.with_moves(model.positions());
    } else {
      Deployment moved = net.deployment();
      moved.positions = model.positions();
      Network rebuilt(std::move(moved));
      rebuilt.force(Network::kNeedsSafety);
      net = std::move(rebuilt);
    }
    benchmark::DoNotOptimize(net.safety().unsafe_node_count());
  }
}
BENCHMARK(BM_MobilityRepin)->Arg(0)->Arg(1);

/// The same rebuild-vs-incremental datapoint under *localized* motion (5%
/// of the nodes drift per epoch, everyone else holds still) — the regime
/// the incremental path targets: the grid relocation, adjacency patch and
/// touched-node safety scan all skip the unmoved majority.
void BM_LocalMotionRepin(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 42;
  Network net = Network::create(config);
  net.force(Network::kNeedsSafety);
  Rng rng(7);
  for (auto _ : state) {
    std::vector<Vec2> moved = net.graph().positions();
    for (int k = 0; k < 30; ++k) {
      NodeId u = static_cast<NodeId>(rng.next_below(moved.size()));
      moved[u].x = std::clamp(moved[u].x + rng.uniform(-8.0, 8.0), 0.0, 200.0);
      moved[u].y = std::clamp(moved[u].y + rng.uniform(-8.0, 8.0), 0.0, 200.0);
    }
    if (incremental) {
      net = net.with_moves(moved);
    } else {
      Deployment d = net.deployment();
      d.positions = std::move(moved);
      Network rebuilt(std::move(d));
      rebuilt.force(Network::kNeedsSafety);
      net = std::move(rebuilt);
    }
    benchmark::DoNotOptimize(net.safety().unsafe_node_count());
  }
}
BENCHMARK(BM_LocalMotionRepin)->Arg(0)->Arg(1);

/// One full streaming-delivery cell (sim/stream_sim.h): 4 schemes x 30
/// packets with two mid-stream failure waves — the unit of work the
/// streaming-delivery scenario fans out over its sweep pool.
void BM_StreamSimCell(benchmark::State& state) {
  NetworkConfig config;
  config.deployment.node_count = 500;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 17;
  for (auto _ : state) {
    Network net = Network::create(config);
    Rng rng(99);
    StreamConfig sc;
    sc.packets = 30;
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first == kInvalidNode) {
      state.SkipWithError("no connected interior pair");
      return;
    }
    sc.pairs.push_back(pair);
    StreamWave wave;
    wave.time = 5.0;
    for (NodeId u = 0; u < net.graph().size(); u += 23) {
      if (u != pair.first && u != pair.second) wave.casualties.push_back(u);
    }
    sc.waves.push_back(wave);
    StreamSim sim(std::move(net), sc);
    StreamStats stats = sim.run();
    benchmark::DoNotOptimize(stats.events);
  }
}
BENCHMARK(BM_StreamSimCell);

/// The streaming engine at traffic scale: `packets` injections at
/// packet_interval 0 — every flight concurrent — of one scheme (GF: no
/// labeling cost, pure stepping + scheduling) over 16 far pairs of a
/// constant-degree 10^4-node field, serial or on a 4-worker pool. Network
/// construction is excluded from the timed region; the `events` counter
/// shows the heap traffic (one tick event per distinct hop instant).
void stream_sim_bench(benchmark::State& state, int threads) {
  const int packets = static_cast<int>(state.range(0));
  Deployment dep = make_scaled_deployment(10000, DeployModel::kForbiddenAreas);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  {
    Network net(dep);
    Rng rng(321);
    for (int trial = 0; trial < 64 && pairs.size() < 16; ++trial) {
      auto pair = net.random_connected_interior_pair(rng);
      if (pair.first != kInvalidNode) pairs.push_back(pair);
    }
  }
  if (pairs.empty()) {
    state.SkipWithError("no connected interior pairs");
    return;
  }
  std::size_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Network net(dep);
    // Materialize GF's lazy recovery structures outside the timed region:
    // the first local minimum would otherwise charge the planar overlay +
    // BOUNDHOLE build (seconds) to the stream, drowning the stepping and
    // scheduling cost this bench exists to show.
    net.force(Network::kNeedsOverlay | Network::kNeedsBoundhole);
    state.ResumeTiming();
    StreamConfig sc;
    SchemeSpec gf;
    gf.scheme = Scheme::kGf;
    sc.schemes.push_back(std::move(gf));
    sc.pairs = pairs;
    sc.packets = packets;
    sc.packet_interval = 0.0;  // all flights in the air at once
    sc.hop_delay = 0.25;
    sc.threads = threads;
    StreamSim sim(std::move(net), sc);
    StreamStats stats = sim.run();
    events = stats.events;
    benchmark::DoNotOptimize(stats.events);
  }
  state.counters["events"] = static_cast<double>(events);
}

void BM_StreamSimFlightRecord(benchmark::State& state) {
  stream_sim_bench(state, 1);
}
BENCHMARK(BM_StreamSimFlightRecord)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_StreamSimFlightRecordParallel(benchmark::State& state) {
  stream_sim_bench(state, 4);
}
BENCHMARK(BM_StreamSimFlightRecordParallel)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

/// The streaming simulator's per-epoch stretch oracle (hop_distances) at
/// the shape of perfbench's stream workload: 64 far pairs (interior nodes
/// of the main component, at least half the field width apart) on a
/// constant-degree 10^5-node field. Args are {nodes, pooled}: serial (0)
/// or on a 4-worker pool (1). Field and pairs are built outside the timed
/// region.
void BM_EpochHopOracle(benchmark::State& state) {
  const bool pooled = state.range(1) != 0;
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  Network net(dep);
  const UnitDiskGraph& g = net.graph();
  std::vector<bool> in_main(g.size(), false);
  for (NodeId u : largest_component(g)) in_main[u] = true;
  std::vector<NodeId> candidates;
  for (NodeId u : net.interest_area().interior_nodes()) {
    if (in_main[u]) candidates.push_back(u);
  }
  const double min_distance = 0.5 * dep.field.width();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(77);
  for (int tries = 0;
       tries < 100000 && pairs.size() < 64 && candidates.size() > 1; ++tries) {
    const NodeId s = candidates[rng.next_below(candidates.size())];
    const NodeId d = candidates[rng.next_below(candidates.size())];
    if (distance(g.position(s), g.position(d)) >= min_distance) {
      pairs.emplace_back(s, d);
    }
  }
  if (pairs.size() < 64) {
    state.SkipWithError("too few far pairs");
    return;
  }
  TaskPool pool(4);
  for (auto _ : state) {
    std::vector<std::size_t> hops =
        hop_distances(g, pairs, pooled ? &pool : nullptr);
    benchmark::DoNotOptimize(hops.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EpochHopOracle)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
