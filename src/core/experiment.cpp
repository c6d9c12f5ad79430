#include "core/experiment.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "graph/graph_algos.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {
/// SplitMix-style mixing of sweep coordinates into a network seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) {
  std::uint64_t z = base ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xBF58476D1CE4E5B9ULL) ^ (c * 0x94D049BB133111EBULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

const std::string& SchemeSpec::display_label() const {
  static const std::string kNames[] = {"GF", "GF/face", "LGF", "SLGF", "SLGF2"};
  if (!label.empty()) return label;
  switch (scheme) {
    case Scheme::kGf: return kNames[0];
    case Scheme::kGfFace: return kNames[1];
    case Scheme::kLgf: return kNames[2];
    case Scheme::kSlgf: return kNames[3];
    case Scheme::kSlgf2: return kNames[4];
  }
  return kNames[4];
}

std::vector<SchemeSpec> SweepConfig::paper_schemes() {
  return {{Scheme::kGf, {}, ""},
          {Scheme::kLgf, {}, ""},
          {Scheme::kSlgf, {}, ""},
          {Scheme::kSlgf2, {}, ""}};
}

std::uint64_t sweep_cell_seed(const SweepConfig& config, int node_count,
                              int net_index) {
  const auto model_tag =
      static_cast<std::uint64_t>(config.model == DeployModel::kIdeal ? 1 : 2);
  return mix_seed(config.base_seed, model_tag,
                  static_cast<std::uint64_t>(node_count),
                  static_cast<std::uint64_t>(net_index));
}

namespace {

/// The exact pair drawing of cell (node_count, net_index).
void draw_cell_pairs(const SweepConfig& config, const Network& network,
                     int node_count, int net_index,
                     ArenaVector<std::pair<NodeId, NodeId>>& out) {
  Rng pair_rng(
      mix_seed(sweep_cell_seed(config, node_count, net_index), 7, 7, 7));
  out.reserve(static_cast<size_t>(std::max(config.pairs_per_network, 0)));
  for (int p = 0; p < config.pairs_per_network; ++p) {
    auto pair = network.random_connected_interior_pair(pair_rng);
    if (pair.first != kInvalidNode) out.push_back(pair);
  }
}

/// Runs one independent sweep cell: draw the network, pick the pairs, run
/// the shared per-source oracle, batch-route every scheme over the same
/// pairs. `timings` (never null) receives this cell's cost breakdown.
CellResult run_cell(const SweepConfig& config, int n, int net_index,
                    SweepTimings* timings) {
  CellResult cell;
  for (const auto& spec : config.schemes) {
    cell.emplace(spec.display_label(), RouteAggregate{});
  }

  NetworkConfig net_config;
  net_config.deployment = config.deployment_template;
  net_config.deployment.model = config.model;
  net_config.deployment.node_count = n;
  net_config.seed = sweep_cell_seed(config, n, net_index);
  auto start = std::chrono::steady_clock::now();
  Network network = Network::create(net_config);
  // Force every structure the scheme set will touch, so the construction
  // bucket really holds construction (GF's recovery structures stay lazy by
  // design — if a packet gets stuck their build lands in the routing
  // bucket, which is exactly the cost model the paper argues about).
  unsigned needs = Network::kNeedsNone;
  for (const auto& spec : config.schemes) {
    needs |= Network::needs_for(spec.scheme);
  }
  network.force(needs);
  timings->construction_seconds += seconds_since(start);

  // Per-cell scratch — the pair buffer and the oracle's grouping arrays —
  // comes from a worker-local monotonic arena: reset per cell, high-water
  // block kept, so steady-state cells stop touching the general heap for
  // it.
  thread_local Arena cell_scratch;
  cell_scratch.reset();
  ArenaVector<std::pair<NodeId, NodeId>> pairs{
      ArenaAllocator<std::pair<NodeId, NodeId>>(cell_scratch)};

  // Same pairs for every scheme: the comparison is paired.
  start = std::chrono::steady_clock::now();
  draw_cell_pairs(config, network, n, net_index, pairs);
  timings->pair_draw_seconds += seconds_since(start);
  timings->pairs_requested += static_cast<std::uint64_t>(
      std::max(config.pairs_per_network, 0));
  timings->pairs_routed += pairs.size();

  // One BFS + one Dijkstra per distinct source, shared by every pair from
  // that source and every scheme.
  start = std::chrono::steady_clock::now();
  OracleBatch oracles(network.graph(), pairs, cell_scratch);
  timings->oracle_seconds += seconds_since(start);
  timings->bfs_searches += oracles.distinct_sources();
  timings->dijkstra_searches += oracles.distinct_sources();

  start = std::chrono::steady_clock::now();
  for (const auto& spec : config.schemes) {
    auto router = network.make_router(spec.scheme, spec.slgf2_options);
    RouteAggregate& agg = cell.at(spec.display_label());
    agg.requested += static_cast<std::size_t>(
        std::max(config.pairs_per_network, 0));
    std::vector<PathResult> results =
        router->route_batch(pairs, config.route_options);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      agg.record(results[i], &oracles.hop_optimal(i),
                 &oracles.length_optimal(i));
    }
  }
  timings->routing_seconds += seconds_since(start);
  return cell;
}

/// A negative count would size the cell list from a wrapped-around
/// unsigned; zero is an empty sweep.
void check_cell_counts(const SweepConfig& config) {
  SPR_CHECK(config.networks_per_point >= 0,
            "SweepConfig::networks_per_point = ", config.networks_per_point,
            ", need >= 0");
  SPR_CHECK(config.pairs_per_network >= 0,
            "SweepConfig::pairs_per_network = ", config.pairs_per_network,
            ", need >= 0");
}

}  // namespace

CellResult run_sweep_cell(const SweepConfig& config, int node_count,
                          int net_index, SweepTimings* timings) {
  SweepTimings scratch;
  return run_cell(config, node_count, net_index,
                  timings != nullptr ? timings : &scratch);
}

std::vector<SliceCell> run_sweep_slice(const SweepConfig& config,
                                       int slice_index, int slice_count,
                                       SweepTimings* timings) {
  check_cell_counts(config);
  std::vector<SliceCell> slice;
  if (slice_count < 1 || slice_index < 0 || slice_index >= slice_count) {
    return slice;
  }
  // Canonical cell enumeration, filtered by congruence class.
  std::size_t global_index = 0;
  for (int node_count : config.node_counts) {
    for (int i = 0; i < config.networks_per_point; ++i, ++global_index) {
      if (global_index % static_cast<std::size_t>(slice_count) !=
          static_cast<std::size_t>(slice_index)) {
        continue;
      }
      slice.push_back({node_count, i, {}});
    }
  }

  SweepTimings accumulated;
  std::mutex timings_mutex;
  auto run_one = [&](std::size_t ci) {
    SweepTimings cell_timings;
    slice[ci].result = run_cell(config, slice[ci].node_count,
                                slice[ci].net_index, &cell_timings);
    std::lock_guard<std::mutex> lock(timings_mutex);
    accumulated.merge(cell_timings);
  };
  if (config.threads == 1) {
    for (std::size_t ci = 0; ci < slice.size(); ++ci) run_one(ci);
  } else {
    TaskPool pool(config.threads);
    pool.parallel_for(slice.size(), run_one);
  }
  if (timings != nullptr) timings->merge(accumulated);
  return slice;
}

std::vector<SweepPoint> merge_cell_results(
    const std::vector<int>& node_counts,
    const std::vector<std::string>& scheme_labels,
    std::vector<SliceCell> cells) {
  // Point index of each node count; cells at unknown counts are dropped.
  auto point_of = [&](int node_count) -> std::size_t {
    for (std::size_t pi = 0; pi < node_counts.size(); ++pi) {
      if (node_counts[pi] == node_count) return pi;
    }
    return node_counts.size();
  };
  // run_sweep merges cells point-major in net_index order; replay that
  // order exactly so Summary::merge sees the same sample sequence.
  std::stable_sort(cells.begin(), cells.end(),
                   [&](const SliceCell& a, const SliceCell& b) {
                     std::size_t pa = point_of(a.node_count);
                     std::size_t pb = point_of(b.node_count);
                     if (pa != pb) return pa < pb;
                     return a.net_index < b.net_index;
                   });

  std::vector<SweepPoint> points(node_counts.size());
  for (std::size_t pi = 0; pi < node_counts.size(); ++pi) {
    points[pi].node_count = node_counts[pi];
    for (const auto& label : scheme_labels) {
      points[pi].by_scheme.emplace(label, RouteAggregate{});
    }
  }
  for (const auto& cell : cells) {
    std::size_t pi = point_of(cell.node_count);
    if (pi >= points.size()) continue;
    for (const auto& [label, agg] : cell.result) {
      auto it = points[pi].by_scheme.find(label);
      if (it != points[pi].by_scheme.end()) it->second.merge(agg);
    }
  }
  return points;
}

void SweepTimings::merge(const SweepTimings& other) {
  construction_seconds += other.construction_seconds;
  pair_draw_seconds += other.pair_draw_seconds;
  oracle_seconds += other.oracle_seconds;
  routing_seconds += other.routing_seconds;
  bfs_searches += other.bfs_searches;
  dijkstra_searches += other.dijkstra_searches;
  pairs_requested += other.pairs_requested;
  pairs_routed += other.pairs_routed;
}

std::vector<std::pair<NodeId, NodeId>> sweep_cell_pairs(
    const SweepConfig& config, const Network& network, int node_count,
    int net_index) {
  Arena scratch;
  ArenaVector<std::pair<NodeId, NodeId>> pairs{
      ArenaAllocator<std::pair<NodeId, NodeId>>(scratch)};
  draw_cell_pairs(config, network, node_count, net_index, pairs);
  return {pairs.begin(), pairs.end()};
}

std::vector<SweepPoint> run_sweep(const SweepConfig& config,
                                  const SweepProgress& progress,
                                  SweepTimings* timings) {
  check_cell_counts(config);
  // Flatten the sweep into independent (node_count, network_index) cells.
  struct Cell {
    std::size_t point_index;
    int node_count;
    int net_index;
  };
  std::vector<Cell> cells;
  cells.reserve(config.node_counts.size() *
                static_cast<std::size_t>(config.networks_per_point));
  for (std::size_t pi = 0; pi < config.node_counts.size(); ++pi) {
    for (int i = 0; i < config.networks_per_point; ++i) {
      cells.push_back({pi, config.node_counts[pi], i});
    }
  }

  std::vector<CellResult> results(cells.size());
  SweepTimings accumulated;
  std::mutex progress_mutex;
  std::mutex timings_mutex;
  auto run_one = [&](std::size_t ci) {
    const Cell& cell = cells[ci];
    if (progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      progress(cell.node_count, cell.net_index, config.networks_per_point);
    }
    SweepTimings cell_timings;
    results[ci] = run_cell(config, cell.node_count, cell.net_index,
                           &cell_timings);
    {
      std::lock_guard<std::mutex> lock(timings_mutex);
      accumulated.merge(cell_timings);
    }
  };

  if (config.threads == 1) {
    for (std::size_t ci = 0; ci < cells.size(); ++ci) run_one(ci);
  } else {
    TaskPool pool(config.threads);
    pool.parallel_for(cells.size(), run_one);
  }

  // Merge per-cell aggregates in cell order. Summary::merge replays samples
  // in insertion order, so this reduction is bit-identical to the serial
  // accumulation regardless of which thread ran which cell.
  std::vector<SweepPoint> points(config.node_counts.size());
  for (std::size_t pi = 0; pi < config.node_counts.size(); ++pi) {
    points[pi].node_count = config.node_counts[pi];
    for (const auto& spec : config.schemes) {
      points[pi].by_scheme.emplace(spec.display_label(), RouteAggregate{});
    }
  }
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    SweepPoint& point = points[cells[ci].point_index];
    for (auto& [label, agg] : results[ci]) {
      point.by_scheme.at(label).merge(agg);
    }
  }
  if (timings != nullptr) *timings = accumulated;
  return points;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int env_int_or(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  int value = 0;
  auto [ptr, ec] = std::from_chars(raw, raw + std::strlen(raw), value);
  if (ec != std::errc() || ptr != raw + std::strlen(raw)) return fallback;
  return value;
}

}  // namespace spr
