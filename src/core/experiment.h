#pragma once

/// \file experiment.h
/// The sweep runner behind every figure bench: vary the node count over the
/// paper's grid (400..800 step 50), draw `networks_per_point` random
/// networks per point, route `pairs_per_network` random connected interior
/// pairs with each scheme, and aggregate.
///
/// Seeding is hierarchical and deterministic: network i of point (model, n)
/// uses seed mix(base_seed, model, n, i), so every scheme routes the exact
/// same packets over the exact same networks — the comparison is paired, as
/// in the paper.
///
/// That same seeding makes every (node_count, network_index) cell fully
/// independent, so the sweep parallelizes across cells on a work-stealing
/// pool (`SweepConfig::threads`). Per-cell aggregates are merged in cell
/// order, and Summary::merge replays samples in insertion order — so the
/// parallel result is bit-identical to the serial one, thread count and
/// scheduling notwithstanding.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/network.h"

namespace spr {

/// One scheme entry in a sweep: a paper scheme plus (for SLGF2) options,
/// under a display label. Lets the ablation bench sweep SLGF2 variants.
struct SchemeSpec {
  Scheme scheme = Scheme::kSlgf2;
  Slgf2Options slgf2_options{};
  std::string label;  ///< defaults to scheme_name(scheme) when empty

  const std::string& display_label() const;
};

/// Sweep parameters. Defaults reproduce the paper's setup.
struct SweepConfig {
  DeployModel model = DeployModel::kIdeal;
  std::vector<int> node_counts = {400, 450, 500, 550, 600, 650, 700, 750, 800};
  int networks_per_point = 100;
  int pairs_per_network = 20;
  std::uint64_t base_seed = 2009;
  std::vector<SchemeSpec> schemes;
  RouteOptions route_options{};
  DeploymentConfig deployment_template{};  ///< field/range/FA knobs
  /// Worker threads for the sweep: 0 = hardware concurrency, 1 = serial on
  /// the calling thread (no pool), N = pool of N. Results are bit-identical
  /// for every value.
  int threads = 0;

  /// The paper's four schemes in figure order.
  static std::vector<SchemeSpec> paper_schemes();
};

/// Aggregates for one (node_count, scheme) cell.
struct SweepPoint {
  int node_count = 0;
  std::map<std::string, RouteAggregate> by_scheme;  ///< keyed by display label
};

/// One (node_count, network_index) cell's aggregates, keyed like SweepPoint
/// (display label -> aggregate). The cell is the sweep's unit of
/// parallelism and — serialized (report/serialize.h) — its unit of
/// cross-process distribution.
using CellResult = std::map<std::string, RouteAggregate>;

/// A cell result tagged with its sweep coordinates, as carried by sweep
/// *slice* files (report/serialize.h) — a slice is a modular subset of a
/// sweep's cells for cross-process distribution.
struct SliceCell {
  int node_count = 0;
  int net_index = 0;
  CellResult result;
};

/// Progress callback: (node_count, network_index, networks_total). Invoked
/// once per network cell under a mutex (never concurrently); with threads>1
/// the invocation order across cells is unspecified.
using SweepProgress = std::function<void(int, int, int)>;

/// Cost breakdown of a sweep, accumulated over all cells. The seconds are
/// wall-clock (timing-noisy, summed across workers); the counts are exact
/// and deterministic. One BFS and one Dijkstra run per *distinct source*
/// per cell — `bfs_searches` against `2 * pairs_routed` is the saving over
/// the per-pair oracle loop this pipeline replaced.
struct SweepTimings {
  double construction_seconds = 0.0;  ///< Network::create + forced structures
  double pair_draw_seconds = 0.0;     ///< connected-pair sampling (BFS probes)
  double oracle_seconds = 0.0;        ///< OracleBatch searches + extraction
  double routing_seconds = 0.0;       ///< route_batch over every scheme
  std::uint64_t bfs_searches = 0;     ///< oracle BFS trees (distinct sources)
  std::uint64_t dijkstra_searches = 0;
  std::uint64_t pairs_requested = 0;  ///< cells x pairs_per_network
  std::uint64_t pairs_routed = 0;     ///< pairs actually drawn and routed

  /// Accumulates another breakdown (the sweep's cell-order reduction).
  void merge(const SweepTimings& other);
};

/// Runs the sweep; one SweepPoint per node count, in order. Deterministic:
/// the result depends only on `config`, not on `config.threads` or timing.
/// `timings`, when non-null, receives the accumulated cost breakdown.
/// Throws CheckError when `networks_per_point` or `pairs_per_network` is
/// negative.
std::vector<SweepPoint> run_sweep(const SweepConfig& config,
                                  const SweepProgress& progress = {},
                                  SweepTimings* timings = nullptr);

/// Runs one independent sweep cell — exactly what run_sweep does for cell
/// (node_count, net_index). Exposed so slice runners and tests can compute
/// any cell out of process. `timings`, when non-null, accumulates the
/// cell's cost breakdown.
CellResult run_sweep_cell(const SweepConfig& config, int node_count,
                          int net_index, SweepTimings* timings = nullptr);

/// Runs the subset of the sweep's cells whose canonical index (point-major:
/// node_counts outer, net_index inner) is congruent to `slice_index` modulo
/// `slice_count`, in parallel per `config.threads`. The union of all slices
/// is exactly the cell set run_sweep computes. Checks the counts as
/// run_sweep does.
std::vector<SliceCell> run_sweep_slice(const SweepConfig& config,
                                       int slice_index, int slice_count,
                                       SweepTimings* timings = nullptr);

/// Merges tagged cell results into sweep points, replaying run_sweep's
/// canonical cell-order reduction (node_counts outer, net_index inner) —
/// given every cell of a sweep, the result is bit-identical to running
/// run_sweep in process. Cells with a node_count not in `node_counts` are
/// ignored; every point starts with an empty aggregate per label in
/// `scheme_labels`.
std::vector<SweepPoint> merge_cell_results(
    const std::vector<int>& node_counts,
    const std::vector<std::string>& scheme_labels,
    std::vector<SliceCell> cells);

/// The (s, d) pairs cell (node_count, net_index) routes — the exact drawing
/// the sweep performs, exposed so scenarios and tests can reconstruct any
/// cell's traffic. `network` must be the cell's network (same seed). May
/// return fewer than `pairs_per_network` pairs when connected interior
/// pairs cannot be drawn; the shortfall is what RouteAggregate::requested
/// tracks.
std::vector<std::pair<NodeId, NodeId>> sweep_cell_pairs(
    const SweepConfig& config, const Network& network, int node_count,
    int net_index);

/// The seed of network `net_index` at sweep point (model, node_count) —
/// exposed so scenarios and tests can reconstruct any cell's network.
std::uint64_t sweep_cell_seed(const SweepConfig& config, int node_count,
                              int net_index);

/// Reads an integer override from the environment (used by the auxiliary
/// benches so `SPR_NETWORKS=5 ./bench_delivery` gives a quick pass);
/// returns `fallback` when unset or unparsable.
int env_int_or(const char* name, int fallback);

/// Seconds elapsed since `start` — the wall-clock helper behind
/// SweepTimings and the scenario reports.
double seconds_since(std::chrono::steady_clock::time_point start);

}  // namespace spr
