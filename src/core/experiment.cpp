#include "core/experiment.h"

#include <algorithm>

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

/// A negative count would size the cell list from a wrapped-around
/// unsigned; zero is an empty sweep. A repeated node count would make two
/// points whose cells share coordinates, which the cell-order reduction
/// (and a slice file) cannot tell apart.
void check_sweep_config(const SweepConfig& config) {
  SPR_CHECK(config.networks_per_point >= 0,
            "SweepConfig::networks_per_point = ", config.networks_per_point,
            ", need >= 0");
  SPR_CHECK(config.pairs_per_network >= 0,
            "SweepConfig::pairs_per_network = ", config.pairs_per_network,
            ", need >= 0");
  for (auto it = config.node_counts.begin(); it != config.node_counts.end();
       ++it) {
    SPR_CHECK(std::find(config.node_counts.begin(), it, *it) == it,
              "SweepConfig::node_counts repeats ", *it);
  }
}

}  // namespace

// One cell: draw the network, pick the pairs, run the per-pair oracle,
// batch-route every scheme over the same pairs.
CellResult run_sweep_cell(const SweepConfig& config, int n, int net_index) {
  CellResult cell;
  for (const auto& spec : config.schemes) {
    cell.emplace(spec.display_label(), RouteAggregate{});
  }

  NetworkConfig net_config;
  net_config.deployment = config.deployment_template;
  net_config.deployment.model = config.model;
  net_config.deployment.node_count = n;
  net_config.seed = sweep_cell_seed(config, n, net_index);
  Network network = Network::create(net_config);
  // Force every structure the scheme set will touch before routing (GF's
  // recovery structures stay lazy by design: a stuck packet builds them,
  // which is exactly the cost model the paper argues about).
  unsigned needs = Network::kNeedsNone;
  for (const auto& spec : config.schemes) {
    needs |= Network::needs_for(spec.scheme);
  }
  network.force(needs);

  // The per-cell pair buffer comes from a worker-local monotonic arena:
  // reset per cell, high-water block kept, so steady-state cells stop
  // touching the general heap for it.
  thread_local Arena cell_scratch;
  cell_scratch.reset();
  ArenaVector<std::pair<NodeId, NodeId>> pairs{
      ArenaAllocator<std::pair<NodeId, NodeId>>(cell_scratch)};

  // Same pairs for every scheme: the comparison is paired.
  draw_cell_pairs(config, network, n, net_index, pairs);

  // Each pair's optima, shared by every scheme.
  OracleBatch oracles(network.graph(), pairs);

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
  return cell;
}

std::vector<SliceCell> run_sweep_slice(const SweepConfig& config,
                                       int slice_index, int slice_count) {
  check_sweep_config(config);
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

  // Every cell is independent, so the pool may run them in any order; each
  // result lands in its own canonical slot.
  auto run_one = [&](std::size_t ci) {
    slice[ci].result =
        run_sweep_cell(config, slice[ci].node_count, slice[ci].net_index);
  };
  if (config.threads == 1) {
    for (std::size_t ci = 0; ci < slice.size(); ++ci) run_one(ci);
  } else {
    TaskPool pool(config.threads);
    pool.parallel_for(slice.size(), run_one);
  }
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
  // Merge point-major in net_index order, the canonical cell order, so
  // Summary::merge sees the same sample sequence however the cells were
  // split into slices or scheduled.
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

std::vector<std::pair<NodeId, NodeId>> sweep_cell_pairs(
    const SweepConfig& config, const Network& network, int node_count,
    int net_index) {
  Arena scratch;
  ArenaVector<std::pair<NodeId, NodeId>> pairs{
      ArenaAllocator<std::pair<NodeId, NodeId>>(scratch)};
  draw_cell_pairs(config, network, node_count, net_index, pairs);
  return {pairs.begin(), pairs.end()};
}

std::vector<SweepPoint> run_sweep(const SweepConfig& config) {
  // Summary::merge replays samples in insertion order, so the cell-order
  // reduction is bit-identical to a serial accumulation regardless of
  // which thread ran which cell.
  std::vector<std::string> labels;
  labels.reserve(config.schemes.size());
  for (const auto& spec : config.schemes) {
    labels.push_back(spec.display_label());
  }
  return merge_cell_results(config.node_counts, labels,
                            run_sweep_slice(config, 0, 1));
}

}  // namespace spr
