// The benchmark's measuring process: runs one workload against the spr
// library's public API and prints one JSON object of raw results (samples,
// checks, counters, digest) on its last stdout line. perfbench/run.py
// builds this program, runs it and turns the raw results into metrics.
//
//   perfbench_workloads --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <file>]
//
// Untraced runs (--trace 0) time the workload's operation in a loop for
// --seconds and give the end-to-end numbers. Traced runs (--trace 1) run
// the operation once untraced and once with spans around every public call,
// replay the layers the facade calls hide, and write the spans as a Chrome
// trace to --trace-out.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "deploy/deployment.h"
#include "deploy/interest_area.h"
#include "graph/graph_algos.h"
#include "graph/unit_disk.h"
#include "routing/boundhole.h"
#include "safety/incremental.h"
#include "safety/labeling.h"
#include "sim/stream_sim.h"
#include "tracer.h"
#include "util/task_pool.h"

namespace perfbench {
namespace {

using spr::NodeId;
using Span = Tracer::Span;

// ------------------------------------------------------------ parameters
// Sizes of each workload's inputs; README.md says why each was chosen.
constexpr int kSweepNetworksPerPoint = 4;
constexpr int kSweepPairs = 20;
// world-build times many 2.5*10^5-node worlds: a run's median then rides
// out bursts of host contention that swing a handful of 10^6 builds by 30%.
// The traced run breaks down 10^6-node worlds, the scale the pool targets.
constexpr int kWorldNodes = 250000;
constexpr int kTracedWorldNodes = 1000000;
constexpr int kWarmupNodes = 100000;
constexpr int kEpochNodes = 100000;
constexpr int kEpochsPerChain = 2;        // wave + re-pin pairs, then restart
constexpr double kEpochFraction = 0.01;   // share of nodes failed / moved
constexpr double kEpochDrift = 8.0;       // meters, localized re-pin radius
constexpr int kStreamNodes = 100000;
// Uniform (IA) field: on scaled FA fields one stream's cost swings 5x with
// the hole layout, far beyond what a run can average out (README.md).
constexpr spr::DeployModel kStreamModel = spr::DeployModel::kIdeal;
constexpr int kStreamPairs = 64;
constexpr int kStreamPackets = 10000;
constexpr double kStreamInterval = 0.01;  // virtual s between injections
constexpr double kStreamFailure = 0.01;   // share of nodes across 2 waves
constexpr double kStreamRepinDt = 4.0;    // waypoint seconds per re-pin
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Raw results of one run, printed as JSON for run.py.
struct Report {
  std::vector<double> setup_s;
  std::vector<double> op_s;
  std::vector<double> untraced_s;  // traced runs: the operation untraced
  std::vector<double> traced_s;    // ... and traced
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> exact;     // deterministic quality outputs
  std::map<std::string, double> counters;  // per-layer counts (traced runs)
  std::uint64_t digest = 0;
  double peak_rss_mb = 0.0;
};

void check(Report& report, const std::string& name, bool ok) {
  report.checks.emplace_back(name, ok);
  if (!ok) {
    ++report.failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", name.c_str());
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int worker_count() { return std::min(4, spr::TaskPool::hardware_threads()); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xC2B2AE3D27D4EB4FULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// FNV-1a over the bytes of trivially copyable values.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
  }
};

std::uint64_t digest_of(const spr::SafetyInfo& info) {
  Digest d;
  for (NodeId u = 0; u < info.size(); ++u) {
    const spr::SafetyTuple& t = info.tuple(u);
    for (int i = 0; i < 4; ++i) {
      const auto k = static_cast<std::size_t>(i);
      d.add(t.safe[k]);
      if (!t.safe[k]) {
        d.add(t.anchors[k].first);
        d.add(t.anchors[k].last);
      }
    }
  }
  return d.h;
}

bool same_adjacency(const spr::UnitDiskGraph& a, const spr::UnitDiskGraph& b) {
  if (a.size() != b.size() || a.directed_edge_count() != b.directed_edge_count()) {
    return false;
  }
  for (NodeId u = 0; u < a.size(); ++u) {
    auto na = a.neighbors(u);
    auto nb = b.neighbors(u);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

/// The constant-degree scaled field of bench_micro: the side grows with
/// sqrt(n/600) so the mean degree stays at the paper's (~19), and the
/// forbidden areas scale with it so holes stay proportionally sized.
spr::DeploymentConfig scaled_field(int n, spr::DeployModel model) {
  spr::DeploymentConfig config;
  config.node_count = n;
  config.model = model;
  const double scale = std::sqrt(static_cast<double>(n) / 600.0);
  if (scale > 1.0) {
    config.field = spr::Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
    config.min_forbidden_extent *= scale;
    config.max_forbidden_extent *= scale;
    config.forbidden_margin *= scale;
  }
  return config;
}

/// Runs `op(i)` until at least `min_ops` ran and `seconds` passed. `op`
/// returns the seconds of its timed region; an exception counts as a
/// failed operation.
template <typename Op>
void measure(Report& report, double seconds, int min_ops, Op&& op) {
  const Clock::time_point start = Clock::now();
  for (int i = 0;
       i < min_ops || seconds_between(start, Clock::now()) < seconds; ++i) {
    ++report.attempted;
    try {
      report.op_s.push_back(op(i));
    } catch (const std::exception& e) {
      ++report.failed;
      std::fprintf(stderr, "perfbench: operation %d failed: %s\n", i, e.what());
    }
  }
}

void write_trace(Report& report, const Tracer& tracer, const std::string& path) {
  if (!path.empty()) check(report, "trace written", tracer.write_chrome_trace(path));
}

template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_between(start, Clock::now());
}

/// Runs the operation `reps` times untraced and traced in turn; run.py
/// reports the difference of the medians as the tracing overhead.
template <typename Op>
void overhead_pairs(Report& report, Tracer& tracer, int reps, Op&& op) {
  for (int r = 0; r < reps; ++r) {
    report.attempted += 2;
    report.untraced_s.push_back(op(nullptr));
    report.traced_s.push_back(op(&tracer));
  }
}

// ------------------------------------------------------------ world-build

/// One world through the build stages, each a public call in its own span.
struct World {
  spr::Deployment deployment;
  std::unique_ptr<spr::UnitDiskGraph> graph;
  std::unique_ptr<spr::InterestArea> area;
  spr::SafetyInfo info;
  spr::LabelingStats stats;
};

std::unique_ptr<World> build_world(int n, std::uint64_t seed,
                                   spr::TaskPool* pool, Tracer* t,
                                   const char* suffix = "") {
  auto w = std::make_unique<World>();
  const std::string sfx = suffix;
  {
    Span s(t, "deploy.deploy" + sfx);
    spr::Rng rng(seed);
    w->deployment =
        spr::deploy(scaled_field(n, spr::DeployModel::kForbiddenAreas), rng);
  }
  {
    Span s(t, "graph.unit_disk" + sfx);
    w->graph = std::make_unique<spr::UnitDiskGraph>(
        w->deployment.positions, w->deployment.radio_range,
        w->deployment.field, pool);
  }
  {
    Span s(t, "deploy.interest_area" + sfx);
    w->area = std::make_unique<spr::InterestArea>(*w->graph,
                                                  w->deployment.radio_range);
  }
  {
    Span s(t, "graph.zones" + sfx);
    w->graph->zones(pool);
  }
  {
    Span s(t, "safety.label" + sfx);
    w->info = spr::compute_safety(*w->graph, *w->area, pool, &w->stats);
  }
  return w;
}

/// Per-call means of the labeling kernel's work counters.
void add_labeling_counters(Report& r, const spr::LabelingStats& s, double calls) {
  r.counters["safety.flips"] += static_cast<double>(s.flips + s.init_flips) / calls;
  r.counters["safety.pushes"] += static_cast<double>(s.pushes) / calls;
  r.counters["safety.reevaluations"] += static_cast<double>(s.reevaluations) / calls;
}

void run_world_build(const Args& args, Report& report) {
  std::unique_ptr<spr::TaskPool> pool;
  for (int k = 0; k < kSetupRepeats; ++k) {
    pool.reset();
    report.setup_s.push_back(timed([&] {
      pool = std::make_unique<spr::TaskPool>(worker_count());
      build_world(kWarmupNodes, mix(args.seed, 2, static_cast<std::uint64_t>(k)),
                  pool.get(), nullptr);
    }));
  }
  // Each operation builds another world, so a run's median spans several.
  auto world_seed = [&](int i) {
    return mix(args.seed, 1, static_cast<std::uint64_t>(i));
  };

  std::unique_ptr<World> world;
  if (!args.trace) {
    measure(report, args.seconds, 2, [&](int i) {
      world.reset();  // free the previous world outside the timed region
      const double s = timed([&] {
        world = build_world(kWorldNodes, world_seed(i), pool.get(), nullptr);
      });
      if (i == 0) report.digest = digest_of(world->info);
      return s;
    });
    report.peak_rss_mb = peak_rss_mb();
    if (world) {
      check(report, "pooled labeling equals serial compute_safety",
            spr::compute_safety(*world->graph, *world->area) == world->info);
    }
    return;
  }

  Tracer tracer;
  std::unique_ptr<World> serial;
  overhead_pairs(report, tracer, 2, [&](Tracer* t) {
    world.reset();
    serial.reset();
    const double s = timed([&] {
      world = build_world(kTracedWorldNodes, world_seed(0), pool.get(), t);
    });
    // Pool versus serial: the same stages again with no pool.
    if (t != nullptr) {
      serial = build_world(kTracedWorldNodes, world_seed(0), nullptr, t, ".serial");
    }
    return s;
  });
  check(report, "pooled adjacency equals serial",
        same_adjacency(*world->graph, *serial->graph));
  check(report, "pooled labeling equals serial compute_safety",
        serial->info == world->info);
  report.digest = digest_of(world->info);
  report.counters["graph.directed_edges"] =
      static_cast<double>(world->graph->directed_edge_count());
  add_labeling_counters(report, world->stats, 1.0);
  write_trace(report, tracer, args.trace_out);
}

// ------------------------------------------------------------ epochs

/// The chain's inputs: which nodes fail in a wave and where a re-pin moves
/// nodes to. Drawn from the current network, so a chain is a pure function
/// of (seed, chain index).
std::vector<NodeId> draw_wave(const spr::Network& net, spr::Rng& rng) {
  const spr::UnitDiskGraph& g = net.graph();
  std::vector<NodeId> alive;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.alive(u)) alive.push_back(u);
  }
  const auto count = static_cast<std::size_t>(kEpochFraction * static_cast<double>(g.size()));
  std::vector<NodeId> failed;
  for (std::size_t k = 0; k < count && !alive.empty(); ++k) {
    const std::size_t pick = rng.next_below(alive.size());
    failed.push_back(alive[pick]);
    alive[pick] = alive.back();
    alive.pop_back();
  }
  std::sort(failed.begin(), failed.end());
  return failed;
}

std::vector<spr::Vec2> draw_repin(const spr::Network& net, spr::Rng& rng) {
  const spr::UnitDiskGraph& g = net.graph();
  std::vector<spr::Vec2> positions = g.positions();
  const spr::Rect field = net.deployment().field;
  const auto count = static_cast<std::size_t>(kEpochFraction * static_cast<double>(g.size()));
  for (std::size_t k = 0; k < count; ++k) {
    const NodeId u = static_cast<NodeId>(rng.next_below(positions.size()));
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double radius = rng.uniform(0.0, kEpochDrift);
    positions[u].x = std::clamp(positions[u].x + radius * std::cos(angle),
                                field.lo().x, field.hi().x);
    positions[u].y = std::clamp(positions[u].y + radius * std::sin(angle),
                                field.lo().y, field.hi().y);
  }
  return positions;
}

/// Per-call means of the incremental updater's work counters.
void add_incremental(Report& r, const spr::IncrementalStats& s, double calls) {
  r.counters["safety.incr_seeds"] += static_cast<double>(s.seeds) / calls;
  r.counters["safety.incr_flips"] += static_cast<double>(s.flips) / calls;
  r.counters["safety.incr_promotions"] += static_cast<double>(s.promotions) / calls;
  r.counters["safety.incr_anchor_recomputes"] +=
      static_cast<double>(s.anchor_recomputes) / calls;
}

void finish_incremental(Report& r) {
  const double seeds = r.counters["safety.incr_seeds"];
  r.counters["safety.incr_flips_per_seed"] =
      seeds > 0 ? r.counters["safety.incr_flips"] / seeds : 0.0;
}

/// Re-runs what Network::with_failures does inside, one public call per
/// span, and checks the pieces land on the facade's result.
bool replay_wave(const spr::Network& before, const spr::Network& after,
                 const std::vector<NodeId>& failed, Tracer* t) {
  std::optional<spr::UnitDiskGraph> g;
  {
    Span s(t, "graph.with_failures");
    g.emplace(before.graph().with_failures(failed));
  }
  std::optional<spr::InterestArea> area;
  {
    Span s(t, "deploy.interest_area");
    area.emplace(*g, before.edge_band());
  }
  spr::SafetyInfo info;
  {
    Span s(t, "safety.info_copy");
    info = before.safety();
  }
  {
    Span s(t, "safety.update_failures");
    spr::update_safety_after_failures(*g, *area, failed, info);
  }
  return info == after.safety() && same_adjacency(*g, after.graph());
}

bool replay_repin(const spr::Network& before, const spr::Network& after,
                  const std::vector<spr::Vec2>& positions, Tracer* t) {
  std::optional<spr::UnitDiskGraph> g;
  {
    Span s(t, "graph.with_moves");
    g.emplace(before.graph().with_moves(positions));
  }
  std::optional<spr::InterestArea> area;
  {
    Span s(t, "deploy.interest_area");
    area.emplace(*g, before.edge_band());
  }
  spr::SafetyInfo info;
  {
    Span s(t, "safety.info_copy");
    info = before.safety();
  }
  {
    Span s(t, "safety.update_moves");
    spr::update_safety_after_moves(before.graph(), before.interest_area(), *g,
                                   *area, info);
  }
  return info == after.safety() && same_adjacency(*g, after.graph());
}

/// A serially built and labeled network, stage by stage.
spr::Network build_network(int n, spr::DeployModel model, std::uint64_t seed,
                           Tracer* t,
                           spr::LabelingStats* stats = nullptr) {
  spr::Deployment deployment;
  {
    Span s(t, "deploy.deploy");
    spr::Rng rng(seed);
    deployment = spr::deploy(scaled_field(n, model), rng);
  }
  std::optional<spr::Network> net;
  {
    Span s(t, "core.network");  // unit-disk graph + interest area
    net.emplace(std::move(deployment));
  }
  {
    Span s(t, "graph.zones");
    net->graph().zones();
  }
  {
    Span s(t, "safety.label");
    net->adopt_safety(spr::compute_safety(net->graph(), net->interest_area(),
                                          nullptr, stats));
  }
  return std::move(*net);
}

/// Outcome of one epoch chain from the base network.
struct Chain {
  std::optional<spr::Network> last;
  std::vector<double> pair_s;
  bool replays_match = true;
};

Chain run_chain(const spr::Network& base, std::uint64_t seed, int chain,
                Report& report, Tracer* t, bool replay) {
  Chain out;
  spr::Rng rng(mix(seed, 3, static_cast<std::uint64_t>(chain)));
  for (int e = 0; e < kEpochsPerChain; ++e) {
    const spr::Network& before = out.last ? *out.last : base;
    std::vector<NodeId> failed = draw_wave(before, rng);
    spr::IncrementalStats wave_stats;
    std::optional<spr::Network> degraded;
    const double wave_s = timed([&] {
      Span s(t, "core.with_failures");
      degraded.emplace(before.with_failures(failed, &wave_stats));
    });
    if (replay) out.replays_match &= replay_wave(before, *degraded, failed, t);

    std::vector<spr::Vec2> positions = draw_repin(*degraded, rng);
    spr::IncrementalStats repin_stats;
    std::optional<spr::Network> moved;
    const double repin_s = timed([&] {
      Span s(t, "core.with_moves");
      moved.emplace(degraded->with_moves(positions, &repin_stats));
    });
    if (replay) out.replays_match &= replay_repin(*degraded, *moved, positions, t);

    report.attempted += 2;
    out.pair_s.push_back(wave_s + repin_s);
    if (t != nullptr) {
      add_incremental(report, wave_stats, 2.0 * kEpochsPerChain);
      add_incremental(report, repin_stats, 2.0 * kEpochsPerChain);
    }
    out.last = std::move(moved);
  }
  return out;
}

void check_against_scratch(Report& report, const spr::Network& net,
                           const std::string& what) {
  const spr::UnitDiskGraph& g = net.graph();
  std::vector<bool> alive(g.size());
  for (NodeId u = 0; u < g.size(); ++u) alive[u] = g.alive(u);
  spr::UnitDiskGraph fresh(g.positions(), g.range(), g.bounds(), alive);
  check(report, what + ": adjacency equals a fresh UnitDiskGraph",
        same_adjacency(g, fresh));
  check(report, what + ": labeling equals scratch compute_safety",
        spr::compute_safety(g, net.interest_area()) == net.safety());
}

void run_epochs(const Args& args, Report& report) {
  // Chain c starts from world c, so a run's median spans several worlds.
  // Set-up builds the first kSetupRepeats; later chains build their own
  // outside the timed region.
  auto world = [&](int c) {
    return build_network(kEpochNodes, spr::DeployModel::kForbiddenAreas,
                         mix(args.seed, 4, static_cast<std::uint64_t>(c)), nullptr);
  };
  std::vector<std::optional<spr::Network>> bases(kSetupRepeats);
  for (int k = 0; k < kSetupRepeats; ++k) {
    report.setup_s.push_back(
        timed([&] { bases[static_cast<std::size_t>(k)].emplace(world(k)); }));
  }

  if (!args.trace) {
    std::optional<spr::Network> last;
    const Clock::time_point start = Clock::now();
    for (int c = 0; c == 0 || seconds_between(start, Clock::now()) < args.seconds; ++c) {
      last.reset();
      try {
        std::optional<spr::Network> base;
        if (c < kSetupRepeats) {
          base = std::move(bases[static_cast<std::size_t>(c)]);
        } else {
          base.emplace(world(c));
        }
        Chain chain = run_chain(*base, args.seed, c, report, nullptr, false);
        report.op_s.insert(report.op_s.end(), chain.pair_s.begin(), chain.pair_s.end());
        if (c == 0) report.digest = digest_of(chain.last->safety());
        last = std::move(chain.last);
      } catch (const std::exception& e) {
        ++report.failed;
        std::fprintf(stderr, "perfbench: chain %d failed: %s\n", c, e.what());
      }
    }
    report.peak_rss_mb = peak_rss_mb();
    if (last) check_against_scratch(report, *last, "last epoch chain");
    return;
  }

  Tracer tracer;
  // The traced run re-runs the first set-up build stage by stage.
  spr::LabelingStats label_stats;
  build_network(kEpochNodes, spr::DeployModel::kForbiddenAreas, mix(args.seed, 4, 0),
                &tracer, &label_stats);
  const spr::Network& base = *bases.front();
  Chain untraced = run_chain(base, args.seed, 0, report, nullptr, false);
  Chain traced = run_chain(base, args.seed, 0, report, &tracer, true);
  report.untraced_s = untraced.pair_s;
  report.traced_s = traced.pair_s;
  finish_incremental(report);
  add_labeling_counters(report, label_stats, 1.0);
  report.counters["graph.directed_edges"] =
      static_cast<double>(base.graph().directed_edge_count());
  check(report, "replayed epoch pieces equal Network::with_failures/with_moves",
        traced.replays_match);
  check_against_scratch(report, *traced.last, "epoch chain 0");
  report.digest = digest_of(traced.last->safety());
  write_trace(report, tracer, args.trace_out);
}

// ------------------------------------------------------------ stream

const std::vector<spr::SchemeSpec>& stream_schemes() {
  static const std::vector<spr::SchemeSpec> schemes = {
      {spr::Scheme::kLgf, {}, ""},
      {spr::Scheme::kSlgf, {}, ""},
      {spr::Scheme::kSlgf2, {}, ""}};
  return schemes;
}

/// Far endpoint pairs: interior nodes of the largest component at least
/// half the field side apart. One component pass instead of a BFS per pair.
std::vector<std::pair<NodeId, NodeId>> far_pairs(const spr::Network& net,
                                                 std::uint64_t seed) {
  const spr::UnitDiskGraph& g = net.graph();
  std::vector<bool> in_main(g.size(), false);
  for (NodeId u : spr::largest_component(g)) in_main[u] = true;
  std::vector<NodeId> candidates;
  for (NodeId u : net.interest_area().interior_nodes()) {
    if (in_main[u]) candidates.push_back(u);
  }
  const spr::Rect field = net.deployment().field;
  const double min_distance = 0.5 * field.width();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  spr::Rng rng(seed);
  for (int tries = 0; tries < 100000 && pairs.size() < kStreamPairs &&
                      candidates.size() > 1;
       ++tries) {
    const NodeId s = candidates[rng.next_below(candidates.size())];
    const NodeId d = candidates[rng.next_below(candidates.size())];
    if (spr::distance(g.position(s), g.position(d)) >= min_distance) {
      pairs.emplace_back(s, d);
    }
  }
  return pairs;
}

spr::StreamConfig stream_config(const spr::Network& net, std::uint64_t seed) {
  spr::StreamConfig sc;
  sc.schemes = stream_schemes();
  sc.pairs = far_pairs(net, mix(seed, 5));
  sc.packets = kStreamPackets;
  sc.packet_interval = kStreamInterval;
  sc.hop_delay = 0.25;
  const double span = kStreamPackets * kStreamInterval;
  spr::Rng rng(mix(seed, 6));
  sc.waves = spr::spread_failure_waves(net.graph(), sc.pairs, kStreamFailure,
                                       2, span, rng);
  // Re-pins at 0.8 and 1.6 spans: traffic is still in flight at the first,
  // and flights (about 50 virtual seconds at most) are over by the second.
  sc.mobility_interval = 0.8 * span;
  sc.mobility_dt = kStreamRepinDt;
  sc.seed = mix(seed, 7);
  // One core is left to the thread that runs the event loop: with a worker
  // on every core, each tick's barrier waits on whichever core the OS took.
  sc.threads = std::max(1, worker_count() - 1);
  return sc;
}

bool stream_balanced(const spr::StreamStats& stats) {
  bool ok = !stats.schemes.empty();
  for (const spr::StreamSchemeStats& s : stats.schemes) {
    ok &= s.injected == kStreamPackets &&
          s.injected == s.delivered + s.dead_end + s.ttl_expired + s.node_failed;
  }
  return ok;
}

/// The stream's exact outputs: SLGF2's delivery ratio and a digest of every
/// scheme's outcome counts plus the final labeling.
void stream_exact(Report& report, const spr::StreamStats& stats,
                  const spr::StreamSim& sim) {
  Digest d;
  for (const spr::StreamSchemeStats& s : stats.schemes) {
    d.add(s.delivered);
    d.add(s.dead_end);
    d.add(s.ttl_expired);
    d.add(s.node_failed);
    d.add(s.hops.sum());
    if (s.label == "SLGF2") {
      report.exact["stream_slgf2_delivery_ratio"] = s.delivery_ratio();
    }
  }
  d.add(digest_of(sim.network().safety()));
  report.digest = d.h;
}

void check_final_labeling(Report& report, const spr::StreamSim& sim) {
  const spr::Network& net = sim.network();
  check(report, "stream: final labeling equals scratch compute_safety",
        spr::compute_safety(net.graph(), net.interest_area()) == net.safety());
}

constexpr const char* kBalanceCheck =
    "stream: injected == delivered + dead_end + ttl_expired + node_failed";

void run_stream(const Args& args, Report& report) {
  // A StreamSim runs once, so every operation pays its own set-up: network,
  // pairs, schedule and StreamSim construction. Operation i streams over
  // world i, so a run's median spans several worlds.
  auto make_sim = [&](int i) {
    std::unique_ptr<spr::StreamSim> sim;
    report.setup_s.push_back(timed([&] {
      spr::Network net =
          build_network(kStreamNodes, kStreamModel,
                        mix(args.seed, 8, static_cast<std::uint64_t>(i)), nullptr);
      spr::StreamConfig sc = stream_config(net, args.seed);
      if (sc.pairs.size() != kStreamPairs) {
        throw std::runtime_error("too few far pairs");
      }
      sim = std::make_unique<spr::StreamSim>(std::move(net), std::move(sc));
    }));
    return sim;
  };

  std::unique_ptr<spr::StreamSim> sim;
  spr::StreamStats stats;
  if (!args.trace) {
    bool balanced = true;
    measure(report, args.seconds, 2, [&](int i) {
      sim.reset();
      sim = make_sim(i);
      const double s = timed([&] { stats = sim->run(); });
      balanced &= stream_balanced(stats);
      if (i == 0) stream_exact(report, stats, *sim);
      return s;
    });
    report.peak_rss_mb = peak_rss_mb();
    check(report, kBalanceCheck, balanced);
    if (sim) check_final_labeling(report, *sim);
    return;
  }

  Tracer tracer;
  overhead_pairs(report, tracer, 1, [&](Tracer* t) {
    sim.reset();
    sim = make_sim(0);
    return timed([&] {
      Span s(t, "sim.run");
      stats = sim->run();
    });
  });
  check(report, kBalanceCheck, stream_balanced(stats));
  check_final_labeling(report, *sim);
  stream_exact(report, stats, *sim);

  // The same waves and re-pins replayed outside the sim, in time order,
  // from the same seeds: what the topology epochs cost without the packets.
  spr::Network net =
      build_network(kStreamNodes, kStreamModel, mix(args.seed, 8, 0), nullptr);
  spr::StreamConfig sc = stream_config(net, args.seed);
  // StreamSim pins the waypoint field to the deployment's and seeds the
  // process with seed ^ 0x5712; the check below fails if either drifts.
  spr::WaypointConfig wc = sc.waypoint;
  wc.field = net.deployment().field;
  spr::WaypointModel mobility(net.deployment().positions, wc,
                              spr::Rng(sc.seed ^ 0x5712));
  std::vector<std::pair<double, int>> epochs;  // (time, wave index or -1)
  for (std::size_t w = 0; w < sc.waves.size(); ++w) {
    epochs.emplace_back(sc.waves[w].time, static_cast<int>(w));
  }
  for (std::size_t r = 1; r <= stats.repins; ++r) {
    epochs.emplace_back(static_cast<double>(r) * sc.mobility_interval, -1);
  }
  std::stable_sort(epochs.begin(), epochs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [time, wave] : epochs) {
    spr::IncrementalStats relabel;
    if (wave >= 0) {
      std::vector<NodeId> casualties;
      for (NodeId u : sc.waves[static_cast<std::size_t>(wave)].casualties) {
        if (net.graph().alive(u)) casualties.push_back(u);
      }
      Span s(&tracer, "sim.epoch");
      net = net.with_failures(casualties, &relabel);
    } else {
      mobility.advance(sc.mobility_dt);
      Span s(&tracer, "sim.epoch");
      net = net.with_moves(mobility.positions(), &relabel);
    }
    add_incremental(report, relabel, static_cast<double>(epochs.size()));
  }
  finish_incremental(report);
  check(report, "stream: replayed epochs reach the sim's final network",
        net.graph().positions() == sim->network().graph().positions() &&
            same_adjacency(net.graph(), sim->network().graph()) &&
            net.safety() == sim->network().safety());

  double flights = 0.0, replans = 0.0, hops = 0.0, delivered = 0.0;
  for (const spr::StreamSchemeStats& s : stats.schemes) {
    flights += static_cast<double>(s.injected);
    replans += s.replans.sum();
    hops += s.hops.sum();
    delivered += static_cast<double>(s.hops.count());
  }
  report.counters["sim.events"] = static_cast<double>(stats.events);
  report.counters["sim.flights"] = flights;
  report.counters["sim.replans"] = replans;
  report.counters["sim.repins"] = static_cast<double>(stats.repins);
  report.counters["routing.hops"] = delivered > 0 ? hops / delivered : 0.0;
  write_trace(report, tracer, args.trace_out);
}

// ------------------------------------------------------------ paper-sweep

spr::SweepConfig sweep_config(std::uint64_t seed, int threads) {
  spr::SweepConfig config;
  config.model = spr::DeployModel::kForbiddenAreas;
  config.networks_per_point = kSweepNetworksPerPoint;
  config.pairs_per_network = kSweepPairs;
  config.base_seed = seed;
  config.schemes = spr::SweepConfig::paper_schemes();
  config.threads = threads;
  return config;
}

std::size_t sweep_cells(const spr::SweepConfig& config) {
  return config.node_counts.size() *
         static_cast<std::size_t>(config.networks_per_point);
}

std::uint64_t digest_of(const std::vector<spr::SweepPoint>& points) {
  Digest d;
  for (const spr::SweepPoint& p : points) {
    d.add(p.node_count);
    for (const auto& [label, agg] : p.by_scheme) {
      for (char c : label) d.add(c);
      d.add(agg.requested);
      d.add(agg.attempted);
      d.add(agg.delivered);
      d.add(agg.hops.sum());
      d.add(agg.length.sum());
      d.add(agg.stretch_hops.sum());
      d.add(agg.perimeter_hops.sum());
      d.add(agg.backup_hops.sum());
      d.add(agg.local_minima.sum());
    }
  }
  return d.h;
}

void sweep_exact(Report& report, const std::vector<spr::SweepPoint>& points) {
  double attempted = 0.0, delivered = 0.0, hops = 0.0;
  for (const spr::SweepPoint& p : points) {
    const spr::RouteAggregate& agg = p.by_scheme.at("SLGF2");
    attempted += static_cast<double>(agg.attempted);
    delivered += static_cast<double>(agg.delivered);
    hops += agg.hops.sum();
  }
  report.exact["slgf2_delivery_ratio"] = attempted > 0 ? delivered / attempted : 0.0;
  report.exact["slgf2_avg_hops"] = delivered > 0 ? hops / delivered : 0.0;
  report.digest = digest_of(points);
}

/// Per-cell counts of the replayed sweep.
struct CellCounts {
  spr::LabelingStats labeling;
  std::size_t directed_edges = 0;
  std::size_t stuck = 0;
  std::size_t orphan_stuck = 0;
  std::size_t hops = 0;
  std::map<std::string, std::size_t> packets;
};

/// One sweep cell through public calls, each layer in its own span: what
/// run_sweep_cell does, with GF's lazy recovery structures forced as their
/// own spans instead of hiding in the first stuck packet's route.
spr::CellResult replay_cell(const spr::SweepConfig& config, int n, int index,
                            Tracer* t, CellCounts& counts) {
  Span cell(t, "core.cell");
  spr::NetworkConfig nc;
  nc.deployment = config.deployment_template;
  nc.deployment.model = config.model;
  nc.deployment.node_count = n;
  nc.seed = spr::sweep_cell_seed(config, n, index);
  spr::Deployment deployment;
  {
    Span s(t, "deploy.deploy");
    spr::Rng rng(nc.seed);
    deployment = spr::deploy(nc.deployment, rng);
  }
  std::optional<spr::Network> net;
  {
    Span s(t, "core.network");
    net.emplace(std::move(deployment));
  }
  {
    Span s(t, "graph.zones");
    net->graph().zones();
  }
  {
    Span s(t, "safety.label");
    net->adopt_safety(spr::compute_safety(net->graph(), net->interest_area(),
                                          nullptr, &counts.labeling));
  }
  {
    Span s(t, "routing.overlay");
    net->force(spr::Network::kNeedsOverlay);
  }
  {
    Span s(t, "routing.boundhole");
    net->force(spr::Network::kNeedsBoundhole);
  }
  const spr::UnitDiskGraph& g = net->graph();
  const spr::BoundHoleInfo& holes = net->boundhole();
  counts.directed_edges = g.directed_edge_count();
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!holes.is_stuck(u)) continue;
    ++counts.stuck;
    if (g.degree(u) >= 2 && holes.boundary_of(u) < 0) ++counts.orphan_stuck;
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  {
    Span s(t, "core.pair_draw");
    pairs = spr::sweep_cell_pairs(config, *net, n, index);
  }
  std::optional<spr::OracleBatch> oracles;
  {
    Span s(t, "core.oracle");
    oracles.emplace(g, pairs);
  }
  spr::CellResult result;
  for (const spr::SchemeSpec& spec : config.schemes) {
    const std::string& label = spec.display_label();
    std::string lower = label;
    for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    std::vector<spr::PathResult> paths;
    {
      Span s(t, "routing." + lower + ".route");
      auto router = net->make_router(spec.scheme, spec.slgf2_options);
      paths = router->route_batch(pairs, config.route_options);
    }
    spr::RouteAggregate& agg = result[label];
    agg.requested += static_cast<std::size_t>(config.pairs_per_network);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      agg.record(paths[i], &oracles->hop_optimal(i), &oracles->length_optimal(i));
      counts.hops += paths[i].hops();
    }
    counts.packets["routing." + lower + ".packets"] += pairs.size();
  }
  return result;
}

void run_paper_sweep(const Args& args, Report& report) {
  // Operation i sweeps with base seed i of this run, so a run's median
  // spans several sweeps' networks.
  auto config = [&](int i, int threads) {
    return sweep_config(mix(args.seed, 10, static_cast<std::uint64_t>(i)), threads);
  };
  const spr::SweepConfig first = config(0, worker_count());
  const std::size_t cells = sweep_cells(first);
  // Set-up: the first sweep's first cell at every node count, which warms
  // code paths and the allocator before the timed sweeps. GF is left out:
  // its lazy BOUNDHOLE build swings by 10x between networks and is measured
  // by the sweeps.
  spr::SweepConfig warmup = first;
  std::erase_if(warmup.schemes,
                [](const spr::SchemeSpec& spec) { return spec.scheme == spr::Scheme::kGf; });
  for (int k = 0; k < kSetupRepeats; ++k) {
    report.setup_s.push_back(timed([&] {
      for (int n : warmup.node_counts) spr::run_sweep_cell(warmup, n, 0);
    }));
  }

  if (!args.trace) {
    measure(report, args.seconds, 3, [&](int i) {
      std::vector<spr::SweepPoint> points;
      const spr::SweepConfig c = config(i, worker_count());
      const double s = timed([&] { points = spr::run_sweep(c); });
      report.attempted += cells - 1;  // one operation per cell
      if (i == 0) sweep_exact(report, points);
      return s;
    });
    report.peak_rss_mb = peak_rss_mb();
    check(report, "sweep digest equals a threads=1 run",
          digest_of(spr::run_sweep(config(0, 1))) == report.digest);
    return;
  }

  Tracer tracer;
  std::vector<spr::SweepPoint> pooled;
  std::vector<spr::SweepPoint> replayed;
  std::vector<CellCounts> counts(cells);
  overhead_pairs(report, tracer, 3, [&](Tracer* t) {
    report.attempted += cells - 1;
    if (t == nullptr) return timed([&] { pooled = spr::run_sweep(first); });
    return timed([&] {
      std::vector<spr::SliceCell> results(cells);
      spr::TaskPool pool(worker_count());
      pool.parallel_for(cells, [&](std::size_t c) {
        const auto per_point = static_cast<std::size_t>(first.networks_per_point);
        const int n = first.node_counts[c / per_point];
        const int index = static_cast<int>(c % per_point);
        counts[c] = CellCounts{};
        results[c] = {n, index, replay_cell(first, n, index, t, counts[c])};
      });
      std::vector<std::string> labels;
      for (const auto& spec : first.schemes) labels.push_back(spec.display_label());
      replayed = spr::merge_cell_results(first.node_counts, labels, std::move(results));
    });
  });
  sweep_exact(report, pooled);
  check(report, "sweep digest equals a threads=1 run",
        digest_of(spr::run_sweep(config(0, 1))) == report.digest);
  check(report, "replayed cells reproduce run_sweep",
        digest_of(replayed) == report.digest);

  double stuck = 0.0, orphans = 0.0, edges = 0.0, hops = 0.0, packets = 0.0;
  for (const CellCounts& c : counts) {
    add_labeling_counters(report, c.labeling, static_cast<double>(cells));
    edges += static_cast<double>(c.directed_edges);
    stuck += static_cast<double>(c.stuck);
    orphans += static_cast<double>(c.orphan_stuck);
    hops += static_cast<double>(c.hops);
    for (const auto& [name, n] : c.packets) {
      report.counters[name] += static_cast<double>(n);
      packets += static_cast<double>(n);
    }
  }
  const auto per_cell = static_cast<double>(cells);
  for (const auto& [name, n] : counts.front().packets) report.counters[name] /= per_cell;
  report.counters["graph.directed_edges"] = edges / per_cell;
  report.counters["routing.boundhole_stuck"] = stuck / per_cell;
  report.counters["routing.boundhole_orphan_stuck"] = orphans / per_cell;
  report.counters["routing.hops"] = packets > 0 ? hops / packets : 0.0;
  write_trace(report, tracer, args.trace_out);
}

// ------------------------------------------------------------ output

void print_report(const Args& args, const Report& r) {
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ",", v[i]);
      s += buf;
    }
    return s + "]";
  };
  auto object = [](const auto& entries) {
    std::string s = "{";
    bool first = true;
    for (const auto& [name, value] : entries) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(value));
      s += (first ? "\"" : ",\"") + name + "\":" + buf;
      first = false;
    }
    return s + "}";
  };
  std::string checks = "{";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    checks += (i == 0 ? "\"" : ",\"") + r.checks[i].first + "\":" +
              (r.checks[i].second ? "true" : "false");
  }
  checks += "}";
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"setup_s\":%s,"
      "\"op_s\":%s,\"untraced_s\":%s,\"traced_s\":%s,\"attempted\":%zu,\"failed\":%zu,\"peak_rss_mb\":%.6g,"
      "\"digest\":\"%s\",\"checks\":%s,\"exact\":%s,"
      "\"counters\":%s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, list(r.setup_s).c_str(), list(r.op_s).c_str(),
      list(r.untraced_s).c_str(), list(r.traced_s).c_str(),
      r.attempted, r.failed, r.peak_rss_mb, digest,
      checks.c_str(), object(r.exact).c_str(), object(r.counters).c_str());
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper-sweep|world-build|epochs|stream> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const std::map<std::string, void (*)(const Args&, Report&)> workloads = {
      {"paper-sweep", run_paper_sweep},
      {"world-build", run_world_build},
      {"epochs", run_epochs},
      {"stream", run_stream}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  try {
    it->second(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  print_report(args, report);
  return 0;
}
