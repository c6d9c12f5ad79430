#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>

#include "graph/graph_algos.h"
#include "mobility/waypoint.h"
#include "report/serialize.h"
#include "routing/baselines.h"
#include "routing/slgf2.h"
#include "safety/distributed.h"
#include "safety/incremental.h"
#include "sim/engine.h"
#include "sim/stream_sim.h"
#include "stats/table.h"
#include "util/suggest.h"
#include "util/task_pool.h"

namespace spr {

namespace {

/// The paper sweep config with scenario-option overrides applied.
SweepConfig figure_config(DeployModel model, const ScenarioOptions& opts) {
  SweepConfig config;
  config.model = model;
  config.networks_per_point = opts.networks > 0 ? opts.networks : 100;
  config.pairs_per_network = opts.pairs > 0 ? opts.pairs : 20;
  config.base_seed = opts.seed != 0 ? opts.seed : 2009;
  config.threads = opts.threads;
  config.schemes = SweepConfig::paper_schemes();
  return config;
}

/// The per-scheme metric series of one sweep, as a plot curve.
ReportCurve metric_curve(std::string title, const std::string& y_label,
                         const SweepConfig& config,
                         const std::vector<SweepPoint>& points,
                         const MetricFn& metric) {
  ReportCurve curve;
  curve.title = std::move(title);
  curve.x_label = "nodes";
  curve.y_label = y_label;
  for (const auto& spec : config.schemes) {
    ReportSeries series;
    series.label = spec.display_label();
    for (const auto& point : points) {
      series.points.emplace_back(
          static_cast<double>(point.node_count),
          metric(point.by_scheme.at(spec.display_label())));
    }
    curve.series.push_back(std::move(series));
  }
  return curve;
}

/// One paper figure: its console heading, its panel title, and the number
/// it plots per (scheme, point) with the decimals the table shows.
struct Figure {
  const char* heading;
  const char* title;
  const char* metric_label;
  MetricFn metric;
  int decimals;
};

/// The paper's Figs. 5-7 from one sweep per deployment model: each figure
/// prints one table (and records one plot curve) per model, and the report
/// carries one sweep section per model.
int run_figures(const ScenarioOptions& opts, ScenarioReport& report) {
  const Figure figures[] = {
      {"== Fig. 5: maximum number of hops of a GF, LGF, SLGF, SLGF2 "
       "routing ==\n\n",
       "Fig. 5", "max hops",
       [](const RouteAggregate& agg) { return agg.max_hops(); }, 0},
      {"== Fig. 6: average number of hops of a GF, LGF, SLGF, SLGF2 "
       "routing ==\n\n",
       "Fig. 6", "avg hops",
       [](const RouteAggregate& agg) { return agg.hops.mean(); }, 2},
      {"== Fig. 7: average length of a GF, LGF, SLGF, SLGF2 routing ==\n\n",
       "Fig. 7", "avg path length (m)",
       [](const RouteAggregate& agg) { return agg.length.mean(); }, 1},
  };
  struct ModelSweep {
    SweepConfig config;
    std::vector<SweepPoint> points;
    std::string delivery;  ///< worst-point delivery ratio per scheme
  };
  std::vector<ModelSweep> sweeps;
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    ModelSweep sweep{figure_config(model, opts), {}, {}};
    sweep.points = run_sweep(sweep.config);
    // Delivery context so failed routes are visible, not silently dropped.
    sweep.delivery = "delivery ratio per scheme (worst point):";
    for (const auto& spec : sweep.config.schemes) {
      double worst = 1.0;
      for (const auto& point : sweep.points) {
        worst = std::min(
            worst, point.by_scheme.at(spec.display_label()).delivery_ratio());
      }
      char buf[96];
      std::snprintf(buf, sizeof(buf), "  %s>=%.2f",
                    spec.display_label().c_str(), worst);
      sweep.delivery += buf;
    }
    sweeps.push_back(std::move(sweep));
  }

  for (const Figure& figure : figures) {
    report.text(figure.heading);
    for (const ModelSweep& sweep : sweeps) {
      const SweepConfig& config = sweep.config;
      report.textf("%s — %s model, %d networks x %d pairs per point\n",
                   figure.title, model_name(config.model),
                   config.networks_per_point, config.pairs_per_network);
      std::vector<std::string> header{"nodes"};
      for (const auto& spec : config.schemes)
        header.push_back(spec.display_label());
      Table table(std::move(header));
      for (const auto& point : sweep.points) {
        std::vector<std::string> row{std::to_string(point.node_count)};
        for (const auto& spec : config.schemes) {
          const auto& agg = point.by_scheme.at(spec.display_label());
          row.push_back(Table::fmt(figure.metric(agg), figure.decimals));
        }
        table.add_row(std::move(row));
      }
      report.add_table(std::move(table), std::string(figure.title) + " " +
                                             deploy_model_tag(config.model));
      report.text(sweep.delivery + "\n\n");
      report.curves.push_back(metric_curve(
          std::string(figure.title) + " — " + model_name(config.model),
          figure.metric_label, config, sweep.points, figure.metric));
    }
  }
  // The delivery line prints under every figure; the notes list it once
  // per model.
  for (ModelSweep& sweep : sweeps) {
    report.notes.push_back(std::move(sweep.delivery));
    report.add_sweep(sweep.config, std::move(sweep.points));
  }
  return 0;
}

int run_ablation(const ScenarioOptions& opts, ScenarioReport& report) {
  report.textf("== SLGF2 ablation: contribution of each mechanism (FA model) "
               "==\n\n");
  std::vector<SchemeSpec> schemes = {
      {Scheme::kSlgf, {}, "SLGF"},
      {Scheme::kSlgf2, {}, "SLGF2"},
      {Scheme::kSlgf2, {.use_either_hand = false}, "-eitherhand"},
      {Scheme::kSlgf2, {.use_backup_paths = false}, "-backup"},
      {Scheme::kSlgf2, {.limit_perimeter = false}, "-limitperim"},
  };

  SweepConfig config = figure_config(DeployModel::kForbiddenAreas, opts);
  if (opts.networks == 0) config.networks_per_point = 40;
  config.schemes = schemes;
  config.node_counts = {400, 600, 800};

  auto points = run_sweep(config);

  struct Metric {
    const char* name;
    MetricFn fn;
  };
  const Metric metrics[] = {
      {"avg-hops", [](const RouteAggregate& a) { return a.hops.mean(); }},
      {"avg-length", [](const RouteAggregate& a) { return a.length.mean(); }},
      {"perimeter-hops",
       [](const RouteAggregate& a) { return a.perimeter_hops.mean(); }},
      {"delivery", [](const RouteAggregate& a) { return a.delivery_ratio(); }},
  };
  for (const Metric& metric : metrics) {
    report.textf("%s\n", metric.name);
    std::vector<std::string> header{"nodes"};
    for (const auto& s : schemes) header.push_back(s.display_label());
    Table table(std::move(header));
    for (const auto& point : points) {
      std::vector<std::string> row{std::to_string(point.node_count)};
      for (const auto& s : schemes) {
        row.push_back(
            Table::fmt(metric.fn(point.by_scheme.at(s.display_label())), 2));
      }
      table.add_row(std::move(row));
    }
    report.add_table(std::move(table), metric.name);
    report.textf("\n");
    report.curves.push_back(metric_curve(
        std::string("ablation — ") + metric.name, metric.name, config, points,
        metric.fn));
  }

  report.add_sweep(config, std::move(points));
  return 0;
}

/// Hole-field study: the FA regime the safety model targets — how much of
/// the network is labeled unsafe and what that buys each scheme.
int run_hole_field(const ScenarioOptions& opts, ScenarioReport& report) {
  report.textf("== Hole field: unsafe labeling share and per-scheme delivery "
               "(FA model) ==\n\n");
  SweepConfig config = figure_config(DeployModel::kForbiddenAreas, opts);
  if (opts.networks == 0) config.networks_per_point = 20;
  config.node_counts = {500, 600, 700};

  auto points = run_sweep(config);

  // Unsafe-node share, sampled over this sweep's own networks (the sweep
  // itself never builds the labeling for GF/LGF — that's the point of the
  // lazy Network — so sample it here explicitly). These builds run on the
  // main thread, so the adjacency, zones and anchor passes fan out within
  // each network.
  TaskPool build_pool(opts.threads);
  Table table({"nodes", "unsafe%", "GF deliv", "LGF deliv", "SLGF deliv",
               "SLGF2 deliv", "SLGF2 perim"});
  std::vector<double> unsafe_shares;
  for (const auto& point : points) {
    double unsafe_sum = 0.0;
    int sampled = std::min(config.networks_per_point, 5);
    for (int i = 0; i < sampled; ++i) {
      NetworkConfig nc;
      nc.deployment = config.deployment_template;
      nc.deployment.model = config.model;
      nc.deployment.node_count = point.node_count;
      nc.seed = sweep_cell_seed(config, point.node_count, i);
      nc.build_pool = &build_pool;
      Network net = Network::create(nc);
      unsafe_sum += static_cast<double>(net.safety().unsafe_node_count()) /
                    static_cast<double>(net.graph().size());
    }
    double unsafe_share = unsafe_sum / sampled;
    unsafe_shares.push_back(unsafe_share);
    table.add_row(
        {std::to_string(point.node_count),
         Table::fmt(100.0 * unsafe_share, 1),
         Table::fmt(point.by_scheme.at("GF").delivery_ratio()),
         Table::fmt(point.by_scheme.at("LGF").delivery_ratio()),
         Table::fmt(point.by_scheme.at("SLGF").delivery_ratio()),
         Table::fmt(point.by_scheme.at("SLGF2").delivery_ratio()),
         Table::fmt(point.by_scheme.at("SLGF2").perimeter_hops.mean())});
  }
  report.add_table(std::move(table));

  JsonValue shares = JsonValue::array();
  for (double s : unsafe_shares) shares.push(JsonValue::of(s));
  report.param("unsafe_share", std::move(shares));

  ReportCurve unsafe_curve;
  unsafe_curve.title = "hole-field — unsafe node share";
  unsafe_curve.x_label = "nodes";
  unsafe_curve.y_label = "unsafe %";
  ReportSeries share_series;
  share_series.label = "unsafe%";
  for (std::size_t i = 0; i < points.size(); ++i) {
    share_series.points.emplace_back(
        static_cast<double>(points[i].node_count), 100.0 * unsafe_shares[i]);
  }
  unsafe_curve.series.push_back(std::move(share_series));
  report.curves.push_back(std::move(unsafe_curve));
  report.curves.push_back(metric_curve(
      "hole-field — delivery ratio", "delivery ratio", config, points,
      [](const RouteAggregate& a) { return a.delivery_ratio(); }));

  report.add_sweep(config, std::move(points));
  return 0;
}

/// Failure dynamics: kill a disc of nodes between a routable pair, update
/// the labeling incrementally, and compare each scheme before/after.
int run_failure_dynamics(const ScenarioOptions& opts, ScenarioReport& report) {
  int trials = opts.networks > 0 ? opts.networks : 10;
  std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 3;
  const int nodes = 700;
  const double blast = 35.0;
  report.textf("== Failure dynamics: %d trials, %d nodes, %.0fm blast ==\n\n",
               trials, nodes, blast);

  const Scheme schemes[] = {Scheme::kGf, Scheme::kLgf, Scheme::kSlgf,
                            Scheme::kSlgf2};
  std::size_t delivered_before[4] = {0}, delivered_after[4] = {0};
  Summary flips, incremental_reevals;
  int connected_trials = 0;

  // Single-network trials on the main thread: build-parallelize within
  // each network (adjacency, zones and anchor passes fan out; results
  // identical).
  TaskPool build_pool(opts.threads);
  for (int trial = 0; trial < trials; ++trial) {
    NetworkConfig config;
    config.deployment.node_count = nodes;
    config.seed = base_seed + static_cast<std::uint64_t>(trial);
    config.build_pool = &build_pool;
    Network before = Network::create(config);

    Rng rng(config.seed ^ 0xdead);
    auto [s, d] = before.random_connected_interior_pair(rng);
    if (s == kInvalidNode) continue;
    Vec2 mid =
        midpoint(before.graph().position(s), before.graph().position(d));
    std::vector<NodeId> casualties;
    for (NodeId u = 0; u < before.graph().size(); ++u) {
      if (u == s || u == d) continue;
      if (distance(before.graph().position(u), mid) <= blast) {
        casualties.push_back(u);
      }
    }

    // Connectivity first, on a patched graph alone, so a disconnected
    // trial costs no labeling.
    if (!connected(before.graph().with_failures(casualties), s, d)) continue;
    ++connected_trials;
    // Label first, so the degraded copy continues the labeling
    // incrementally instead of recomputing it.
    before.safety();
    IncrementalStats inc_stats;
    Network after = before.with_failures(casualties, &inc_stats);
    flips.add(static_cast<double>(inc_stats.flips));
    incremental_reevals.add(static_cast<double>(inc_stats.reevaluations));

    for (int k = 0; k < 4; ++k) {
      if (before.make_router(schemes[k])->route(s, d).delivered()) {
        ++delivered_before[k];
      }
      if (after.make_router(schemes[k])->route(s, d).delivered()) {
        ++delivered_after[k];
      }
    }
  }

  Table table({"scheme", "delivered before", "delivered after"});
  for (int k = 0; k < 4; ++k) {
    table.add_row({scheme_name(schemes[k]),
                   std::to_string(delivered_before[k]) + "/" +
                       std::to_string(connected_trials),
                   std::to_string(delivered_after[k]) + "/" +
                       std::to_string(connected_trials)});
  }
  report.add_table(std::move(table));
  if (!flips.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "incremental relabeling: %.1f flips, %.1f re-evaluations per "
                  "failure (mean over %zu trials)",
                  flips.mean(), incremental_reevals.mean(), flips.count());
    report.note(buf);
  }

  report.param("trials", JsonValue::of(trials));
  report.param("connected_trials", JsonValue::of(connected_trials));
  JsonValue scheme_results = JsonValue::array();
  for (int k = 0; k < 4; ++k) {
    JsonValue entry = JsonValue::object();
    entry.set("scheme", JsonValue::of(scheme_name(schemes[k])));
    entry.set("delivered_before",
              JsonValue::of(static_cast<std::uint64_t>(delivered_before[k])));
    entry.set("delivered_after",
              JsonValue::of(static_cast<std::uint64_t>(delivered_after[k])));
    scheme_results.push(std::move(entry));
  }
  report.param("schemes", std::move(scheme_results));
  report.param("relabel_flips", stats_json(flips));
  return 0;
}

/// Mobile stream: a long-lived SLGF2 stream between fixed endpoints while
/// every other node follows a random-waypoint process.
int run_mobile_stream(const ScenarioOptions& opts, ScenarioReport& report) {
  int epochs = opts.networks > 0 ? opts.networks : 8;
  std::uint64_t seed = opts.seed != 0 ? opts.seed : 9;
  const double dt = 20.0;
  DeploymentConfig dc;
  dc.node_count = 600;
  report.textf("== Mobile stream: %d epochs, %d nodes, dt=%.0fs ==\n\n",
               epochs, dc.node_count, dt);

  Rng deploy_rng(seed);
  Deployment d = deploy(dc, deploy_rng);
  WaypointConfig wc;
  wc.field = dc.field;
  WaypointModel model(d.positions, wc, Rng(seed ^ 0x11));

  // Fixed endpoints: a far routable pair of the first snapshot.
  UnitDiskGraph g0(model.positions(), dc.radio_range, dc.field);
  InterestArea area0(g0, dc.radio_range);
  const auto& interior = area0.interior_nodes();
  if (interior.size() < 2) {
    report.textf("network too small for interior endpoints\n");
    report.aborted = true;
    return 1;
  }
  Rng pick_rng(seed ^ 0x22);
  NodeId src = kInvalidNode, dst = kInvalidNode;
  double best = -1.0;
  for (int trial = 0; trial < 64; ++trial) {
    NodeId a = interior[pick_rng.next_below(interior.size())];
    NodeId b = interior[pick_rng.next_below(interior.size())];
    if (a == b || !connected(g0, a, b)) continue;
    double dist = distance(g0.position(a), g0.position(b));
    if (dist > best) {
      best = dist;
      src = a;
      dst = b;
    }
  }
  if (src == kInvalidNode) {
    report.textf("no routable pair in the first snapshot\n");
    report.aborted = true;
    return 1;
  }

  Table table({"epoch", "time", "links", "delivered", "hops", "unsafe"});
  int delivered_epochs = 0;
  Summary hop_counts;
  TaskPool build_pool(opts.threads);  // per-epoch rebuilds fan out within
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Rebuild the snapshot; positions changed, so every derived structure
    // re-constitutes (the paper's argument for cheap construction).
    UnitDiskGraph g(model.positions(), dc.radio_range, dc.field, &build_pool);
    InterestArea area(g, dc.radio_range);
    SafetyInfo info = compute_safety(g, area, &build_pool);
    Slgf2Router router(g, info);
    PathResult r = router.route(src, dst);
    if (r.delivered()) {
      ++delivered_epochs;
      hop_counts.add(static_cast<double>(r.hops()));
    }
    table.add_row({std::to_string(epoch), Table::fmt(model.now(), 0),
                   std::to_string(g.edge_count()),
                   r.delivered() ? "yes" : "NO",
                   std::to_string(r.hops()),
                   std::to_string(info.unsafe_node_count())});
    model.advance(dt);
  }
  report.add_table(std::move(table));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "delivered %d/%d epochs, mean hops %.1f",
                delivered_epochs, epochs,
                hop_counts.empty() ? 0.0 : hop_counts.mean());
  report.note(buf);

  report.param("epochs", JsonValue::of(epochs));
  report.param("delivered_epochs", JsonValue::of(delivered_epochs));
  report.param("hops", stats_json(hop_counts));
  return 0;
}

/// Accumulates one stream's per-scheme totals into a running aggregate
/// (same label, Summary::merge in call order — deterministic).
void merge_stream_scheme(StreamSchemeStats& into,
                         const StreamSchemeStats& from) {
  into.injected += from.injected;
  into.delivered += from.delivered;
  into.dead_end += from.dead_end;
  into.ttl_expired += from.ttl_expired;
  into.node_failed += from.node_failed;
  into.hops.merge(from.hops);
  into.length.merge(from.length);
  into.stretch_hops.merge(from.stretch_hops);
  into.latency.merge(from.latency);
  into.replans.merge(from.replans);
  into.local_minima.merge(from.local_minima);
}

double mean_or_zero(const Summary& s) { return s.empty() ? 0.0 : s.mean(); }
double delivery_ratio_of(const StreamSchemeStats& s) {
  return s.delivery_ratio();
}
double mean_hops_of(const StreamSchemeStats& s) { return mean_or_zero(s.hops); }
double mean_stretch_of(const StreamSchemeStats& s) {
  return mean_or_zero(s.stretch_hops);
}

/// One stream-grid scenario's own parts. The grid has `points` points, each
/// run over `networks` FA cells; the scenario fixes what a point means.
struct StreamGridSpec {
  int nodes = 0;
  int networks = 0;
  int packets = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t pair_salt = 0;  ///< xor'd into the cell seed for the pair RNG
  std::size_t points = 0;
  std::size_t points_per_section = 0;  ///< consecutive points per section
  /// Fills point `gi`'s own StreamConfig fields (failure waves, waypoint
  /// settings). Runs after the endpoint draw and may draw from `rng`.
  std::function<void(std::size_t gi, const Network& net, Rng& rng,
                     StreamConfig& sc)>
      configure;
  /// Point `gi`'s sweep-section key (its x value, integer-scaled).
  std::function<int(std::size_t gi)> point_key;
  /// Adds point `gi`'s coordinates to a per-stream JSON entry.
  std::function<void(std::size_t gi, JsonValue& entry)> label_stream;
  std::string relabel_note;  ///< "... matched ... at every <update>"
  std::string x_axis_note;   ///< what the sweep-section key means
};

/// One grid point's totals over its cells. The relabeling counters sum over
/// failure waves and re-pins alike; each stream-grid scenario runs only one
/// kind.
struct StreamPoint {
  std::vector<StreamSchemeStats> schemes;
  std::size_t casualties = 0;
  std::size_t repins = 0;
  std::size_t moved = 0;
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  std::size_t flips = 0;
  std::size_t promotions = 0;
  std::size_t reevaluations = 0;
  std::size_t arena_high_water = 0;  ///< max over the point's updates

  void add_relabel(const IncrementalStats& relabel) {
    flips += relabel.flips;
    promotions += relabel.promotions;
    reevaluations += relabel.reevaluations;
    arena_high_water = std::max(arena_high_water, relabel.arena_high_water);
  }
};

/// A finished grid: one stream per cell in (point, network) order — empty
/// where the cell's network had no routable endpoints — and the per-point
/// totals, merged in cell order.
struct StreamGrid {
  std::vector<std::optional<StreamStats>> cells;
  std::vector<StreamPoint> points;
  std::size_t skipped_cells = 0;
  bool relabel_ok = true;  ///< every wave/re-pin matched the fresh fixpoint
};

/// Runs every cell of `spec` (serially, or over a pool of `threads`) and
/// merges each point's cells in cell order. No wall-clock or thread-count
/// value enters the result, so a stream-grid report is a pure function of
/// (options, seeds): its JSON/CSV artifacts are byte-identical across
/// reruns and thread counts (tests enforce this). With no traffic in any
/// cell, records the abort in `report` and returns nullopt.
std::optional<StreamGrid> run_stream_grid(const StreamGridSpec& spec,
                                          int threads,
                                          ScenarioReport& report) {
  const auto networks = static_cast<std::size_t>(spec.networks);
  StreamGrid grid;
  grid.cells.resize(spec.points * networks);

  auto run_one = [&](std::size_t ci) {
    NetworkConfig nc;
    nc.deployment.node_count = spec.nodes;
    nc.deployment.model = DeployModel::kForbiddenAreas;
    nc.seed = spec.base_seed ^ ((ci + 1) * 0x9E3779B97F4A7C15ULL);
    Network net = Network::create(nc);

    Rng rng(nc.seed ^ spec.pair_salt);
    StreamConfig sc;
    sc.packets = spec.packets;
    sc.packet_interval = 1.0;
    sc.hop_delay = 0.2;
    sc.seed = nc.seed;
    sc.verify_relabeling = true;
    // A handful of long-lived source/sink pairs, cycled over the stream.
    for (int t = 0; t < 4; ++t) {
      auto pair = net.random_connected_interior_pair(rng);
      if (pair.first != kInvalidNode) sc.pairs.push_back(pair);
    }
    if (sc.pairs.empty()) return;  // cell stays empty (counted below)
    spec.configure(ci / networks, net, rng, sc);
    grid.cells[ci] = StreamSim(std::move(net), std::move(sc)).run();
  };
  if (threads == 1) {
    for (std::size_t ci = 0; ci < grid.cells.size(); ++ci) run_one(ci);
  } else {
    TaskPool pool(threads);
    pool.parallel_for(grid.cells.size(), run_one);
  }

  const auto scheme_specs = SweepConfig::paper_schemes();
  grid.points.resize(spec.points);
  for (std::size_t gi = 0; gi < spec.points; ++gi) {
    StreamPoint& point = grid.points[gi];
    point.schemes.resize(scheme_specs.size());
    for (std::size_t k = 0; k < scheme_specs.size(); ++k) {
      point.schemes[k].label = scheme_specs[k].display_label();
    }
    for (std::size_t ni = 0; ni < networks; ++ni) {
      const std::optional<StreamStats>& cell = grid.cells[gi * networks + ni];
      if (!cell) {
        ++grid.skipped_cells;
        continue;
      }
      for (std::size_t k = 0;
           k < cell->schemes.size() && k < point.schemes.size(); ++k) {
        merge_stream_scheme(point.schemes[k], cell->schemes[k]);
      }
      // The relabel check reads both record kinds.
      for (const WaveRecord& record : cell->waves) {
        point.casualties += record.casualties;
        point.add_relabel(record.relabel);
        grid.relabel_ok &= !record.verified || record.matches_full_recompute;
      }
      point.repins += cell->repins;
      for (const RepinRecord& record : cell->repin_records) {
        point.moved += record.moved;
        point.edges_added += record.edges_added;
        point.edges_removed += record.edges_removed;
        point.add_relabel(record.relabel);
        grid.relabel_ok &= !record.verified || record.matches_full_recompute;
      }
    }
  }
  if (grid.skipped_cells == grid.cells.size()) {
    report.textf("no routable stream endpoints in any cell\n");
    report.aborted = true;
    return std::nullopt;
  }
  return grid;
}

/// A per-scheme plot curve over the points [first, first + xs.size()), the
/// i-th at x = xs[i].
ReportCurve stream_curve(std::string title, std::string x_label,
                         std::string y_label, const StreamGrid& grid,
                         std::size_t first, const std::vector<double>& xs,
                         double (*metric)(const StreamSchemeStats&)) {
  ReportCurve curve{std::move(title), std::move(x_label), std::move(y_label),
                    {}};
  for (std::size_t k = 0; k < grid.points[first].schemes.size(); ++k) {
    ReportSeries series;
    series.label = grid.points[first].schemes[k].label;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      series.points.emplace_back(xs[i],
                                 metric(grid.points[first + i].schemes[k]));
    }
    curve.series.push_back(std::move(series));
  }
  return curve;
}

/// One counter of every grid point, in point order, as a JSON array.
JsonValue point_counts(const StreamGrid& grid,
                       std::size_t StreamPoint::*counter) {
  JsonValue out = JsonValue::array();
  for (const StreamPoint& point : grid.points) {
    out.push(JsonValue::of(static_cast<std::uint64_t>(point.*counter)));
  }
  return out;
}

/// The report tail every stream grid shares, after the scenario's own
/// table, curves and params: the notes, the sweep sections and the
/// per-stream stats. Returns the scenario's exit code.
int finish_stream_grid(const StreamGridSpec& spec, const StreamGrid& grid,
                       ScenarioReport& report) {
  report.note(spec.relabel_note + ": " + (grid.relabel_ok ? "yes" : "NO"));
  report.note(spec.x_axis_note);
  if (grid.skipped_cells > 0) {
    report.note(std::to_string(grid.skipped_cells) + " of " +
                std::to_string(grid.cells.size()) +
                " stream cells had no routable endpoints and were skipped");
  }

  // Sweep sections so the JSON report carries the standard "models" shape,
  // with per-scheme RouteAggregates built from the stream totals. The point
  // key carries the swept value, not a node count (the x-axis note and the
  // sweep_section_x_axis param say which).
  for (std::size_t first = 0; first < spec.points;
       first += spec.points_per_section) {
    SweepSection section;
    section.model = DeployModel::kForbiddenAreas;
    section.networks_per_point = spec.networks;
    section.pairs_per_network = spec.packets;
    section.base_seed = spec.base_seed;
    for (std::size_t gi = first; gi < first + spec.points_per_section; ++gi) {
      SweepPoint point;
      point.node_count = spec.point_key(gi);
      for (const StreamSchemeStats& s : grid.points[gi].schemes) {
        RouteAggregate agg;
        agg.requested = s.injected;
        agg.attempted = s.injected;
        agg.delivered = s.delivered;
        agg.hops = s.hops;
        agg.length = s.length;
        agg.stretch_hops = s.stretch_hops;
        point.by_scheme.emplace(s.label, std::move(agg));
      }
      section.points.push_back(std::move(point));
    }
    report.sweeps.push_back(std::move(section));
  }

  // The full per-cell stream stats through the typed serializer
  // (report/serialize.h).
  const auto networks = static_cast<std::size_t>(spec.networks);
  JsonValue streams = JsonValue::array();
  for (std::size_t ci = 0; ci < grid.cells.size(); ++ci) {
    if (!grid.cells[ci]) continue;
    JsonValue entry = JsonValue::object();
    spec.label_stream(ci / networks, entry);
    entry.set("net", JsonValue::of(static_cast<int>(ci % networks)));
    entry.set("stats", stats_json(*grid.cells[ci]));
    streams.push(std::move(entry));
  }
  report.param("streams", std::move(streams));
  return grid.relabel_ok ? 0 : 1;
}

/// Streaming delivery: long-lived packet streams over StreamSim with
/// failure waves landing *between the hops* of in-flight packets. Sweeps
/// the failure fraction (share of nodes that die over the stream's
/// lifetime); SLGF/SLGF2 keep routing on incrementally relabeled safety
/// information after every wave, and each wave's incremental update is
/// cross-checked against a from-scratch compute_safety.
int run_streaming_delivery(const ScenarioOptions& opts,
                           ScenarioReport& report) {
  const std::vector<double> fractions = {0.0, 0.05, 0.10, 0.20, 0.30};
  const int waves_per_stream = 4;
  StreamGridSpec spec;
  spec.nodes = 600;
  spec.networks = opts.networks > 0 ? opts.networks : 3;
  spec.packets = opts.pairs > 0 ? opts.pairs : 40;
  spec.base_seed = opts.seed != 0 ? opts.seed : 2009;
  spec.pair_salt = 0x57bea;
  spec.points = fractions.size();
  spec.points_per_section = fractions.size();
  // The failure schedule: `fraction` of the nodes dies across
  // `waves_per_stream` waves spread over the stream's injection span,
  // never touching the stream endpoints.
  spec.configure = [&](std::size_t fi, const Network& net, Rng& rng,
                       StreamConfig& sc) {
    sc.waves = spread_failure_waves(
        net.graph(), sc.pairs, fractions[fi], waves_per_stream,
        static_cast<double>(sc.packets) * sc.packet_interval, rng);
  };
  spec.point_key = [&](std::size_t fi) {
    return static_cast<int>(100.0 * fractions[fi] + 0.5);
  };
  spec.label_stream = [&](std::size_t fi, JsonValue& entry) {
    entry.set("fraction", JsonValue::of(fractions[fi]));
  };
  spec.relabel_note =
      "incremental relabeling matched a from-scratch compute_safety at "
      "every wave";
  spec.x_axis_note = "sweep section x axis is the failure percentage "
                     "(every network has " +
                     std::to_string(spec.nodes) + " nodes)";

  report.textf("== Streaming delivery: %d-node FA networks, %d streams x %d "
               "packets per failure fraction, %d mid-stream failure waves "
               "==\n\n",
               spec.nodes, spec.networks, spec.packets, waves_per_stream);
  std::optional<StreamGrid> grid = run_stream_grid(spec, opts.threads, report);
  if (!grid) return 1;

  // Console table: one row per failure fraction.
  std::vector<std::string> header{"fail%"};
  for (const auto& s : grid->points[0].schemes) {
    header.push_back(s.label + " deliv");
  }
  header.push_back("SLGF2 hops");
  header.push_back("SLGF2 stretch");
  header.push_back("relabel flips");
  Table table(std::move(header));
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    const StreamPoint& point = grid->points[fi];
    std::vector<std::string> row{Table::fmt(100.0 * fractions[fi], 0)};
    for (const auto& s : point.schemes) {
      row.push_back(Table::fmt(s.delivery_ratio()));
    }
    row.push_back(Table::fmt(mean_hops_of(point.schemes.back())));
    row.push_back(Table::fmt(mean_stretch_of(point.schemes.back())));
    row.push_back(std::to_string(point.flips));
    table.add_row(std::move(row));
  }
  report.add_table(std::move(table));

  // Plot curves: per-scheme series over the failure fraction.
  std::vector<double> percents;
  for (double f : fractions) percents.push_back(100.0 * f);
  report.curves.push_back(stream_curve(
      "streaming-delivery — delivery ratio", "failed %", "delivery ratio",
      *grid, 0, percents, delivery_ratio_of));
  report.curves.push_back(stream_curve(
      "streaming-delivery — avg hops (delivered)", "failed %", "hops", *grid,
      0, percents, mean_hops_of));
  report.curves.push_back(stream_curve(
      "streaming-delivery — hop stretch vs injection-time optimum",
      "failed %", "stretch", *grid, 0, percents, mean_stretch_of));

  // Machine-readable params: config identity plus the per-fraction
  // relabeling cost (summed over waves and streams).
  report.param("nodes", JsonValue::of(spec.nodes));
  report.param("networks_per_fraction", JsonValue::of(spec.networks));
  report.param("packets_per_stream", JsonValue::of(spec.packets));
  report.param("waves_per_stream", JsonValue::of(waves_per_stream));
  report.param("base_seed", JsonValue::of(spec.base_seed));
  report.param("sweep_section_x_axis", JsonValue::of("failure_percent"));
  report.param("relabel_matches_full_recompute",
               JsonValue::of(grid->relabel_ok));
  JsonValue fractions_json = JsonValue::array();
  for (double f : fractions) fractions_json.push(JsonValue::of(f));
  report.param("failure_fractions", std::move(fractions_json));
  report.param("wave_casualties",
               point_counts(*grid, &StreamPoint::casualties));
  report.param("relabel_flips", point_counts(*grid, &StreamPoint::flips));
  report.param("relabel_reevaluations",
               point_counts(*grid, &StreamPoint::reevaluations));
  return finish_stream_grid(spec, *grid, report);
}

/// Mobility rate: long-lived packet streams while every node follows a
/// random-waypoint process, sweeping the re-pin interval x the maximum
/// node speed. Every re-pin *continues* the snapshot incrementally
/// (Network::with_moves: relocated spatial grid, adjacency patched from
/// the edge delta, bidirectional safety update — removals demote,
/// additions promote) and is cross-checked against a from-scratch
/// compute_safety (StreamConfig::verify_relabeling).
int run_mobility_rate(const ScenarioOptions& opts, ScenarioReport& report) {
  const std::vector<double> intervals = {4.0, 8.0};  // re-pin period, s
  const std::vector<double> speeds = {0.5, 1.5, 3.0};  // max m/s
  // Point gi is (interval_of(gi), speed_of(gi)): intervals major.
  auto interval_of = [&](std::size_t gi) {
    return intervals[gi / speeds.size()];
  };
  auto speed_of = [&](std::size_t gi) { return speeds[gi % speeds.size()]; };
  StreamGridSpec spec;
  spec.nodes = 500;
  spec.networks = opts.networks > 0 ? opts.networks : 2;
  spec.packets = opts.pairs > 0 ? opts.pairs : 30;
  spec.base_seed = opts.seed != 0 ? opts.seed : 2009;
  spec.pair_salt = 0x30b1;
  spec.points = intervals.size() * speeds.size();
  spec.points_per_section = speeds.size();
  spec.configure = [&](std::size_t gi, const Network&, Rng&,
                       StreamConfig& sc) {
    sc.mobility_interval = interval_of(gi);
    sc.mobility_dt = interval_of(gi);  // virtual and waypoint time in step
    sc.waypoint.max_speed_mps = speed_of(gi);
    sc.waypoint.min_speed_mps = speed_of(gi) * 0.25;
    sc.waypoint.pause_s = 2.0;
  };
  spec.point_key = [&](std::size_t gi) {
    return static_cast<int>(10.0 * speed_of(gi) + 0.5);
  };
  spec.label_stream = [&](std::size_t gi, JsonValue& entry) {
    entry.set("repin_interval", JsonValue::of(interval_of(gi)));
    entry.set("max_speed", JsonValue::of(speed_of(gi)));
  };
  spec.relabel_note =
      "incremental with_moves relabeling matched a from-scratch "
      "compute_safety at every re-pin";
  spec.x_axis_note = "sweep section x axis is the max waypoint speed in 0.1 "
                     "m/s units (every network has " +
                     std::to_string(spec.nodes) +
                     " nodes); one section per re-pin interval, in "
                     "interval order";

  report.textf("== Mobility rate: %d-node FA networks, %d streams x %d "
               "packets per cell, re-pin interval x speed sweep with "
               "incremental relabeling ==\n\n",
               spec.nodes, spec.networks, spec.packets);
  std::optional<StreamGrid> grid = run_stream_grid(spec, opts.threads, report);
  if (!grid) return 1;

  // Console table: one row per (interval, speed) grid point.
  std::vector<std::string> header{"repin s", "speed m/s"};
  for (const auto& s : grid->points[0].schemes) {
    header.push_back(s.label + " deliv");
  }
  header.push_back("SLGF2 stretch");
  header.push_back("repins");
  header.push_back("promoted");
  header.push_back("demoted");
  Table table(std::move(header));
  for (std::size_t gi = 0; gi < spec.points; ++gi) {
    const StreamPoint& point = grid->points[gi];
    std::vector<std::string> row{Table::fmt(interval_of(gi), 0),
                                 Table::fmt(speed_of(gi), 1)};
    for (const auto& s : point.schemes) {
      row.push_back(Table::fmt(s.delivery_ratio()));
    }
    row.push_back(Table::fmt(mean_stretch_of(point.schemes.back())));
    row.push_back(std::to_string(point.repins));
    row.push_back(std::to_string(point.promotions));
    row.push_back(std::to_string(point.flips));
    table.add_row(std::move(row));
  }
  report.add_table(std::move(table));

  // Plot curves: per-scheme series over speed, one curve per interval.
  for (const auto& [what, y_label, metric] :
       {std::tuple{"delivery ratio", "delivery ratio", &delivery_ratio_of},
        std::tuple{"hop stretch vs injection-time optimum", "stretch",
                   &mean_stretch_of}}) {
    for (std::size_t ii = 0; ii < intervals.size(); ++ii) {
      char title[120];
      std::snprintf(title, sizeof(title), "mobility-rate — %s (repin %.0fs)",
                    what, intervals[ii]);
      report.curves.push_back(stream_curve(title, "max speed (m/s)", y_label,
                                           *grid, ii * speeds.size(), speeds,
                                           metric));
    }
  }

  // Machine-readable params: config identity and the per-point relabeling
  // cost, in point order.
  report.param("nodes", JsonValue::of(spec.nodes));
  report.param("networks_per_cell", JsonValue::of(spec.networks));
  report.param("packets_per_stream", JsonValue::of(spec.packets));
  report.param("base_seed", JsonValue::of(spec.base_seed));
  report.param("sweep_section_x_axis", JsonValue::of("max_speed_mps_x10"));
  report.param("relabel_matches_full_recompute",
               JsonValue::of(grid->relabel_ok));
  JsonValue intervals_json = JsonValue::array();
  for (double v : intervals) intervals_json.push(JsonValue::of(v));
  report.param("repin_intervals", std::move(intervals_json));
  JsonValue speeds_json = JsonValue::array();
  for (double v : speeds) speeds_json.push(JsonValue::of(v));
  report.param("max_speeds", std::move(speeds_json));
  report.param("repins", point_counts(*grid, &StreamPoint::repins));
  report.param("moved_nodes", point_counts(*grid, &StreamPoint::moved));
  report.param("edges_added", point_counts(*grid, &StreamPoint::edges_added));
  report.param("edges_removed",
               point_counts(*grid, &StreamPoint::edges_removed));
  report.param("relabel_promotions",
               point_counts(*grid, &StreamPoint::promotions));
  report.param("relabel_demotions", point_counts(*grid, &StreamPoint::flips));
  report.param("relabel_reevaluations",
               point_counts(*grid, &StreamPoint::reevaluations));
  // Per-update peak (max-aggregated, so the value is thread-invariant):
  // the retained-block size after which re-pin relabeling stops touching
  // the general heap.
  report.param("relabel_arena_high_water",
               point_counts(*grid, &StreamPoint::arena_high_water));
  return finish_stream_grid(spec, *grid, report);
}

/// Delivery ratio of every implemented scheme — the paper's four plus the
/// greedy-only baselines (MFR, Compass) and the flooding oracle — across
/// the density sweep. The paper's metrics are over delivered packets, so
/// the failure rates behind them matter.
int run_delivery(const ScenarioOptions& opts, ScenarioReport& report) {
  const int networks = opts.networks > 0 ? opts.networks : 30;
  const int pairs = opts.pairs > 0 ? opts.pairs : 15;
  const std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 777000;
  const std::vector<std::string> labels = {
      "GF", "LGF", "SLGF", "SLGF2", "MFR", "Compass", "Flooding"};
  report.textf(
      "== Delivery ratio per scheme (connected interior pairs) ==\n\n");
  report.param("networks_per_point", JsonValue::of(networks));
  report.param("pairs_per_network", JsonValue::of(pairs));
  report.param("base_seed", JsonValue::of(base_seed));

  TaskPool build_pool(opts.threads);
  JsonValue models = JsonValue::array();
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    report.textf("%s model, %d networks x %d pairs per point\n",
                 model_name(model), networks, pairs);
    std::vector<std::string> header{"nodes"};
    header.insert(header.end(), labels.begin(), labels.end());
    Table table(std::move(header));
    ReportCurve curve{std::string("delivery — ") + model_name(model), "nodes",
                      "delivery ratio", {}};
    for (const auto& label : labels) curve.series.push_back({label, {}});
    JsonValue points = JsonValue::array();
    for (int n = 400; n <= 800; n += 100) {
      std::size_t delivered[7] = {0};
      std::size_t attempted = 0;
      for (int i = 0; i < networks; ++i) {
        NetworkConfig config;
        config.deployment.node_count = n;
        config.deployment.model = model;
        config.seed = base_seed + static_cast<std::uint64_t>(n * 131 + i);
        config.build_pool = &build_pool;
        Network net = Network::create(config);
        std::unique_ptr<Router> routers[7] = {
            net.make_router(Scheme::kGf), net.make_router(Scheme::kLgf),
            net.make_router(Scheme::kSlgf), net.make_router(Scheme::kSlgf2),
            std::make_unique<MfrRouter>(net.graph()),
            std::make_unique<CompassRouter>(net.graph()),
            std::make_unique<FloodingRouter>(net.graph())};
        Rng rng(config.seed ^ 0xd00d);
        for (int p = 0; p < pairs; ++p) {
          auto [s, d] = net.random_connected_interior_pair(rng);
          if (s == kInvalidNode) continue;
          ++attempted;
          for (int r = 0; r < 7; ++r) {
            if (routers[r]->route(s, d).delivered()) ++delivered[r];
          }
        }
      }
      std::vector<std::string> row{std::to_string(n)};
      JsonValue ratios = JsonValue::object();
      for (std::size_t r = 0; r < labels.size(); ++r) {
        double ratio = static_cast<double>(delivered[r]) /
                       static_cast<double>(attempted);
        row.push_back(Table::fmt(ratio, 3));
        curve.series[r].points.emplace_back(n, ratio);
        ratios.set(labels[r], JsonValue::of(ratio));
      }
      table.add_row(std::move(row));
      JsonValue point = JsonValue::object();
      point.set("nodes", JsonValue::of(n));
      point.set("attempted",
                JsonValue::of(static_cast<std::uint64_t>(attempted)));
      point.set("delivery_ratio", std::move(ratios));
      points.push(std::move(point));
    }
    report.add_table(std::move(table), deploy_model_tag(model));
    report.text("\n");
    report.curves.push_back(std::move(curve));
    JsonValue entry = JsonValue::object();
    entry.set("model", JsonValue::of(deploy_model_tag(model)));
    entry.set("points", std::move(points));
    models.push(std::move(entry));
  }
  report.param("delivery", std::move(models));
  report.text("flooding = oracle (1.000 by construction on connected pairs);\n"
              "MFR/Compass are greedy-only and show the raw local-minimum\n"
              "rate that the recovery machinery must absorb.\n");
  return 0;
}

/// Hop stretch and length stretch versus the BFS / Dijkstra optima, per
/// scheme and density. The paper argues SLGF2 paths are
/// "straightforward"; stretch is the direct quantitative form of that
/// claim.
int run_stretch(const ScenarioOptions& opts, ScenarioReport& report) {
  report.textf("== Path stretch vs optimal (delivered packets) ==\n\n");
  const MetricFn hop_stretch = [](const RouteAggregate& a) {
    return mean_or_zero(a.stretch_hops);
  };
  const MetricFn length_stretch = [](const RouteAggregate& a) {
    return mean_or_zero(a.stretch_length);
  };
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    SweepConfig config = figure_config(model, opts);
    if (opts.networks == 0) config.networks_per_point = 30;
    config.node_counts = {400, 500, 600, 700, 800};
    auto points = run_sweep(config);

    std::vector<std::string> header{"nodes"};
    for (const auto& spec : config.schemes) {
      header.push_back(spec.display_label());
    }
    Table hops(header);
    Table length(std::move(header));
    for (const auto& point : points) {
      std::vector<std::string> hop_row{std::to_string(point.node_count)};
      std::vector<std::string> len_row{std::to_string(point.node_count)};
      for (const auto& spec : config.schemes) {
        const auto& agg = point.by_scheme.at(spec.display_label());
        hop_row.push_back(Table::fmt(hop_stretch(agg), 3));
        len_row.push_back(Table::fmt(length_stretch(agg), 3));
      }
      hops.add_row(std::move(hop_row));
      length.add_row(std::move(len_row));
    }
    std::string tag = deploy_model_tag(model);
    report.textf("%s model — hop stretch (routed hops / BFS-optimal hops)\n",
                 model_name(model));
    report.add_table(std::move(hops), tag + " hop stretch");
    report.textf("%s model — length stretch (routed meters / "
                 "Dijkstra-optimal)\n",
                 model_name(model));
    report.add_table(std::move(length), tag + " length stretch");
    report.text("\n");

    report.curves.push_back(
        metric_curve(std::string("stretch — hop stretch — ") +
                         model_name(model),
                     "hop stretch", config, points, hop_stretch));
    report.curves.push_back(
        metric_curve(std::string("stretch — length stretch — ") +
                         model_name(model),
                     "length stretch", config, points, length_stretch));
    report.add_sweep(config, std::move(points));
  }
  return 0;
}

/// Naive baseline: every node broadcasts its full state each round until
/// the labeling stabilizes; cost is n broadcasts per round.
EngineStats naive_flood_cost(const UnitDiskGraph& g, const InterestArea& area) {
  // Rounds to stabilize equals the fixpoint depth; reuse the round-based
  // reference to count rounds.
  std::size_t rounds = 1;
  {
    std::vector<SafetyTuple> tuples(g.size());
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<std::pair<NodeId, ZoneType>> flips;
      for (NodeId u = 0; u < g.size(); ++u) {
        if (area.is_edge_node(u)) continue;
        for (ZoneType t : kAllZoneTypes) {
          if (!tuples[u].is_safe(t)) continue;
          bool has_safe = false;
          for (NodeId v : g.neighbors(u)) {
            if (in_quadrant(g.position(u), g.position(v), t) &&
                tuples[v].is_safe(t)) {
              has_safe = true;
              break;
            }
          }
          if (!has_safe) flips.emplace_back(u, t);
        }
      }
      for (auto [u, t] : flips) {
        tuples[u].set_safe(t, false);
        changed = true;
      }
      if (changed) ++rounds;
    }
  }
  EngineStats stats;
  stats.rounds = rounds + 1;  // one extra hello round
  stats.broadcasts = g.size() * stats.rounds;
  std::size_t receptions_per_round = 2 * g.edge_count();
  stats.receptions = receptions_per_round * stats.rounds;
  return stats;
}

/// Cost of constructing the safety information (paper Section 5: "the
/// construction cost of safety information has been proved to be the
/// minimum in [7]"). Measures the distributed protocol (Algorithm 2) on the
/// round engine: rounds to quiescence, broadcasts, and per-link message
/// receptions, versus node count and deployment model. A naive epidemic
/// re-flood baseline (every node rebroadcasts its state every round until
/// global stability) shows what "minimum" is measured against.
int run_construction_cost(const ScenarioOptions& opts,
                          ScenarioReport& report) {
  const int networks = opts.networks > 0 ? opts.networks : 20;
  const std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 900000;
  report.textf("== Construction cost of the safety information (Algorithm 2) "
               "==\n\n");
  report.param("networks_per_point", JsonValue::of(networks));
  report.param("base_seed", JsonValue::of(base_seed));

  TaskPool build_pool(opts.threads);
  JsonValue models = JsonValue::array();
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    report.textf("%s model, %d networks per point\n", model_name(model),
                 networks);
    Table table({"nodes", "rounds", "broadcasts", "bcast/node", "receptions",
                 "naive bcast", "saving"});
    ReportCurve curve{std::string("construction cost — ") + model_name(model),
                      "nodes", "broadcasts per node",
                      {{"Algorithm 2", {}}, {"naive re-flood", {}}}};
    JsonValue points = JsonValue::array();
    for (int n = 400; n <= 800; n += 50) {
      Summary rounds, broadcasts, receptions, naive_broadcasts;
      for (int i = 0; i < networks; ++i) {
        NetworkConfig config;
        config.deployment.node_count = n;
        config.deployment.model = model;
        config.seed = base_seed + static_cast<std::uint64_t>(n * 1000 + i);
        config.build_pool = &build_pool;
        Network net = Network::create(config);
        auto result =
            compute_safety_distributed(net.graph(), net.interest_area());
        rounds.add(static_cast<double>(result.stats.rounds));
        broadcasts.add(static_cast<double>(result.stats.broadcasts));
        receptions.add(static_cast<double>(result.stats.receptions));
        auto naive = naive_flood_cost(net.graph(), net.interest_area());
        naive_broadcasts.add(static_cast<double>(naive.broadcasts));
      }
      table.add_row({std::to_string(n), Table::fmt(rounds.mean(), 1),
                     Table::fmt(broadcasts.mean(), 0),
                     Table::fmt(broadcasts.mean() / n, 2),
                     Table::fmt(receptions.mean(), 0),
                     Table::fmt(naive_broadcasts.mean(), 0),
                     Table::fmt(naive_broadcasts.mean() /
                                    std::max(1.0, broadcasts.mean()),
                                2) +
                         "x"});
      curve.series[0].points.emplace_back(n, broadcasts.mean() / n);
      curve.series[1].points.emplace_back(n, naive_broadcasts.mean() / n);
      JsonValue point = JsonValue::object();
      point.set("nodes", JsonValue::of(n));
      point.set("rounds", stats_json(rounds));
      point.set("broadcasts", stats_json(broadcasts));
      point.set("receptions", stats_json(receptions));
      point.set("naive_broadcasts", stats_json(naive_broadcasts));
      points.push(std::move(point));
    }
    report.add_table(std::move(table), deploy_model_tag(model));
    report.text("\n");
    report.curves.push_back(std::move(curve));
    JsonValue entry = JsonValue::object();
    entry.set("model", JsonValue::of(deploy_model_tag(model)));
    entry.set("points", std::move(points));
    models.push(std::move(entry));
  }
  report.param("construction_cost", std::move(models));
  report.text("broadcasts stay near one per node: only nodes whose status or\n"
              "anchors change rebroadcast, matching the minimality claim.\n");
  return 0;
}

}  // namespace

const char* model_name(DeployModel model) noexcept {
  return model == DeployModel::kIdeal ? "IA (uniform)" : "FA (forbidden areas)";
}

void ScenarioSuite::add(Scenario scenario) {
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioSuite::find(std::string_view name) const noexcept {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioSuite::suggestions(
    std::string_view name) const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const auto& s : scenarios_) names.push_back(s.name);
  return near_matches(name, names);
}

namespace {

/// The sinks `options` selects, with per-scenario default paths for
/// formats requested without an explicit one.
std::vector<std::unique_ptr<ReportSink>> make_sinks(
    const ScenarioOptions& options, const std::string& scenario_name,
    std::string* error) {
  std::vector<ReportFormat> formats;
  if (!parse_report_formats(options.formats, formats, error)) return {};
  auto enabled = [&](ReportFormat f) {
    return std::find(formats.begin(), formats.end(), f) != formats.end();
  };
  // An empty list means console; an explicit output path enables its sink
  // either way (--json predates --format and keeps working).
  if (formats.empty()) formats.push_back(ReportFormat::kConsole);
  if (!options.json_path.empty() && !enabled(ReportFormat::kJson)) {
    formats.push_back(ReportFormat::kJson);
  }
  if (!options.csv_path.empty() && !enabled(ReportFormat::kCsv)) {
    formats.push_back(ReportFormat::kCsv);
  }
  if (!options.svg_path.empty() && !enabled(ReportFormat::kSvg)) {
    formats.push_back(ReportFormat::kSvg);
  }

  std::vector<std::unique_ptr<ReportSink>> sinks;
  for (ReportFormat format : formats) {
    switch (format) {
      case ReportFormat::kConsole:
        sinks.push_back(std::make_unique<ConsoleSink>());
        break;
      case ReportFormat::kJson:
        sinks.push_back(std::make_unique<JsonSink>(
            !options.json_path.empty() ? options.json_path
                                       : scenario_name + ".json"));
        break;
      case ReportFormat::kCsv:
        sinks.push_back(std::make_unique<CsvSink>(
            !options.csv_path.empty() ? options.csv_path
                                      : scenario_name + ".csv"));
        break;
      case ReportFormat::kSvg:
        sinks.push_back(std::make_unique<SvgSink>(
            !options.svg_path.empty() ? options.svg_path
                                      : scenario_name + ".svg"));
        break;
    }
  }
  return sinks;
}

}  // namespace

int ScenarioSuite::run(std::string_view name,
                       const ScenarioOptions& options) const {
  const Scenario* scenario = find(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%.*s'",
                 static_cast<int>(name.size()), name.data());
    auto near_matches = suggestions(name);
    if (!near_matches.empty()) {
      std::fprintf(stderr, "; did you mean:\n");
      for (const auto& s : near_matches) {
        std::fprintf(stderr, "  %s\n", s.c_str());
      }
      std::fprintf(stderr, "available:\n");
    } else {
      std::fprintf(stderr, "; available:\n");
    }
    for (const auto& s : scenarios_) {
      std::fprintf(stderr, "  %-18s %s\n", s.name.c_str(),
                   s.description.c_str());
    }
    return 2;
  }

  std::string sink_error;
  auto sinks = make_sinks(options, scenario->name, &sink_error);
  if (sinks.empty()) {
    std::fprintf(stderr, "%s\n", sink_error.c_str());
    return 2;
  }

  ScenarioReport report;
  report.scenario = scenario->name;
  int code = scenario->build(options, report);

  // An aborted report only carries its failure message in the console
  // blocks; if the user selected structured sinks only, route those blocks
  // to stderr so the failure isn't silent.
  auto is_console_sink = [](const std::unique_ptr<ReportSink>& sink) {
    return std::string_view(sink->name()) == "console";
  };
  if (report.aborted &&
      std::none_of(sinks.begin(), sinks.end(), is_console_sink)) {
    ConsoleSink(stderr).emit(report);
  }

  for (const auto& sink : sinks) {
    // The console stream always prints (it carries the scenario's own
    // failure messages); structured sinks skip aborted half-built reports.
    bool is_console = is_console_sink(sink);
    if (report.aborted && !is_console) continue;
    if (!sink->emit(report)) {
      std::string destination = sink->destination();
      std::fprintf(stderr, "cannot write %s\n",
                   destination.empty() ? sink->name() : destination.c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}

ScenarioSuite& ScenarioSuite::builtin() {
  static ScenarioSuite suite = [] {
    ScenarioSuite s;
    s.add({"figures",
           "paper Figs. 5-7: max hops, average hops and path length per "
           "scheme, IA + FA models",
           run_figures});
    s.add({"ablation", "SLGF2 mechanism ablation (FA model)", run_ablation});
    s.add({"delivery",
           "delivery ratio per scheme incl. MFR/Compass/flooding baselines",
           run_delivery});
    s.add({"stretch", "hop and length stretch vs the BFS/Dijkstra optima",
           run_stretch});
    s.add({"construction-cost",
           "Algorithm 2 construction cost vs a naive re-flood baseline",
           run_construction_cost});
    s.add({"hole-field",
           "unsafe-labeling share and per-scheme delivery on large holes",
           run_hole_field});
    s.add({"failure-dynamics",
           "node-failure blast: incremental relabeling + delivery before/after",
           run_failure_dynamics});
    s.add({"mobile-stream",
           "SLGF2 stream across random-waypoint mobility epochs",
           run_mobile_stream});
    s.add({"streaming-delivery",
           "discrete-event packet streams with mid-stream failure waves and "
           "incremental relabeling",
           run_streaming_delivery});
    s.add({"mobility-rate",
           "re-pin interval x speed sweep: incremental with_moves relabeling "
           "under random-waypoint motion",
           run_mobility_rate});
    return s;
  }();
  return suite;
}

}  // namespace spr
