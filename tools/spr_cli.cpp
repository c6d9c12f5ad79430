/// \file spr_cli.cpp
/// Command-line front end to the library:
///
///   spr_cli info     [flags]            network structure summary
///   spr_cli label    [flags]            safety labeling summary / dump
///   spr_cli route    [flags] <s> <d>    route one pair with every scheme
///   spr_cli sweep    [flags]            mini figure sweep (table output);
///                                       --slice i/m writes a slice JSON
///   spr_cli merge    [flags] <slice.json>...  merge sweep slices
///   spr_cli validate <file.json>...     parse JSON artifacts (CI gate)
///   spr_cli scenario [flags] <name>     run a registered scenario (--list);
///                                       --format console,json,csv,svg
///                                       ("run" is an alias for "scenario")
///   spr_cli render   [flags] <out.svg>  render deployment + unsafe areas
///
/// Common flags: --nodes, --seed, --fa, --range.
///
/// Distributed sweeps: the sweep's (node_count, network_index) cells are
/// independent, so `sweep --slice i/m` computes every i-th cell and
/// serializes the full per-cell aggregates; run the m slices on any
/// machines, copy the JSONs back, and `merge` reproduces the in-process
/// sweep bit-identically.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "core/scenario.h"
#include "graph/graph_algos.h"
#include "graph/metrics.h"
#include "report/serialize.h"
#include "safety/distributed.h"
#include "stats/table.h"
#include "util/flags.h"
#include "util/svg.h"

namespace {

using namespace spr;

struct CommonArgs {
  int nodes = 600;
  unsigned long long seed = 1;
  bool fa = false;
  double range = 20.0;
};

void add_common(FlagSet& flags, CommonArgs& args) {
  flags.add_int("nodes", &args.nodes, "number of sensors");
  flags.add_uint64("seed", &args.seed, "deployment seed");
  flags.add_bool("fa", &args.fa, "forbidden-area deployment model");
  flags.add_double("range", &args.range, "transmission radius (m)");
}

/// Rejects a count below `least`, naming the flag on stderr like the
/// parser's own usage errors.
bool count_at_least(const char* flag, int value, int least) {
  if (value >= least) return true;
  std::fprintf(stderr, "bad value '%d' for flag --%s: need >= %d\n", value,
               flag, least);
  return false;
}

/// Rejects common-flag values no network can be built from (a negative
/// node count, a zero / negative / non-finite radius), naming the flag on
/// stderr like the parser's own usage errors. Every command that takes the
/// common flags calls this right after parsing.
bool validate_common(const CommonArgs& args) {
  if (!count_at_least("nodes", args.nodes, 1)) return false;
  if (!std::isfinite(args.range) || args.range <= 0.0) {
    std::fprintf(stderr,
                 "bad value '%g' for flag --range: need a finite radius > 0\n",
                 args.range);
    return false;
  }
  return true;
}

Network build_network(const CommonArgs& args) {
  NetworkConfig config;
  config.deployment.node_count = args.nodes;
  config.deployment.radio_range = args.range;
  config.deployment.model =
      args.fa ? DeployModel::kForbiddenAreas : DeployModel::kIdeal;
  config.seed = args.seed;
  return Network::create(config);
}

int cmd_info(int argc, const char* const* argv) {
  CommonArgs args;
  FlagSet flags("spr_cli info: network structure summary");
  add_common(flags, args);
  if (!flags.parse(argc, argv) || !validate_common(args)) return 1;
  Network net = build_network(args);
  const auto& g = net.graph();
  auto degrees = degree_stats(g);
  std::printf("nodes        %zu\n", g.size());
  std::printf("links        %zu\n", g.edge_count());
  std::printf("degree       mean %.2f  min %zu  max %zu\n", degrees.mean,
              degrees.min, degrees.max);
  std::printf("connectivity %.1f%% in largest component\n",
              100.0 * largest_component_fraction(g));
  std::printf("hop diameter ~%zu\n", hop_diameter_estimate(g));
  std::printf("edge nodes   %zu (interest area: %zu interior)\n",
              net.interest_area().edge_count(),
              net.interest_area().interior_nodes().size());
  std::printf("gabriel      %zu edges kept\n", net.overlay().edge_count());
  std::printf("stuck nodes  %zu (TENT rule), %zu hole boundaries\n",
              net.boundhole().stuck_count(), net.boundhole().boundaries().size());
  std::printf("unsafe nodes %zu\n", net.safety().unsafe_node_count());
  return 0;
}

int cmd_label(int argc, const char* const* argv) {
  CommonArgs args;
  bool dump = false;
  bool distributed = false;
  FlagSet flags("spr_cli label: safety labeling summary");
  add_common(flags, args);
  flags.add_bool("dump", &dump, "print every unsafe node's tuple and E areas");
  flags.add_bool("distributed", &distributed,
                 "run the distributed construction and report its cost");
  if (!flags.parse(argc, argv) || !validate_common(args)) return 1;
  Network net = build_network(args);
  const auto& info = net.safety();

  std::size_t per_type[4] = {0, 0, 0, 0};
  for (NodeId u = 0; u < info.size(); ++u) {
    for (ZoneType t : kAllZoneTypes) {
      if (!info.is_safe(u, t)) ++per_type[zone_index(t)];
    }
  }
  std::printf("unsafe nodes: %zu of %zu\n", info.unsafe_node_count(),
              info.size());
  std::printf("unsafe statuses per type: 1:%zu 2:%zu 3:%zu 4:%zu\n",
              per_type[0], per_type[1], per_type[2], per_type[3]);
  if (distributed) {
    auto result = compute_safety_distributed(net.graph(), net.interest_area());
    std::printf("distributed construction: %s\n",
                result.stats.to_string().c_str());
    std::printf("matches centralized: %s\n",
                result.info == info ? "yes" : "NO");
  }
  if (dump) {
    for (NodeId u = 0; u < info.size(); ++u) {
      const auto& tuple = info.tuple(u);
      if (tuple.any_safe() && tuple.to_string() == "(1,1,1,1)") continue;
      Vec2 p = net.graph().position(u);
      std::printf("node %u (%.1f,%.1f) %s", u, p.x, p.y,
                  tuple.to_string().c_str());
      for (ZoneType t : kAllZoneTypes) {
        if (tuple.is_safe(t)) continue;
        Rect e = estimated_area(p, tuple.anchors_for(t));
        std::printf("  E%d=[%.0f:%.0f,%.0f:%.0f]", static_cast<int>(t),
                    e.lo().x, e.hi().x, e.lo().y, e.hi().y);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_route(int argc, const char* const* argv) {
  CommonArgs args;
  FlagSet flags("spr_cli route <s> <d>: route one pair with every scheme");
  add_common(flags, args);
  if (!flags.parse(argc, argv) || !validate_common(args)) return 1;
  Network net = build_network(args);
  NodeId s, d;
  if (flags.positional().size() >= 2) {
    s = static_cast<NodeId>(std::stoul(flags.positional()[0]));
    d = static_cast<NodeId>(std::stoul(flags.positional()[1]));
    if (s >= net.graph().size() || d >= net.graph().size()) {
      std::fprintf(stderr, "node ids out of range (network has %zu nodes)\n",
                   net.graph().size());
      return 1;
    }
  } else {
    Rng rng(args.seed ^ 0x99);
    std::tie(s, d) = net.random_connected_interior_pair(rng);
    if (s == kInvalidNode) {
      std::fprintf(stderr, "no routable pair\n");
      return 1;
    }
    std::printf("(no pair given; picked %u -> %u)\n", s, d);
  }
  auto oracle = bfs_path(net.graph(), s, d);
  std::printf("optimal: %zu hops, %.1fm\n", oracle.hops(), oracle.length);
  for (Scheme scheme : {Scheme::kGf, Scheme::kGfFace, Scheme::kLgf,
                        Scheme::kSlgf, Scheme::kSlgf2}) {
    auto router = net.make_router(scheme);
    PathResult r = router->route(s, d);
    std::printf("%-8s %s\n", scheme_name(scheme), r.to_string().c_str());
  }
  return 0;
}

/// Prints the standard mini-sweep table for paper-scheme points.
void print_sweep_table(const std::vector<SweepPoint>& points) {
  Table table({"nodes", "GF avg", "LGF avg", "SLGF avg", "SLGF2 avg",
               "SLGF2 max", "SLGF2 deliv"});
  for (const auto& point : points) {
    const auto& s2 = point.by_scheme.at("SLGF2");
    table.add_row({std::to_string(point.node_count),
                   Table::fmt(point.by_scheme.at("GF").hops.mean()),
                   Table::fmt(point.by_scheme.at("LGF").hops.mean()),
                   Table::fmt(point.by_scheme.at("SLGF").hops.mean()),
                   Table::fmt(s2.hops.mean()), Table::fmt(s2.max_hops(), 0),
                   Table::fmt(s2.delivery_ratio())});
  }
  std::fputs(table.render().c_str(), stdout);
}

/// Parses "--slice i/m"; returns false (with a message) when malformed.
/// Both numbers must consume their whole token ("0x/2y" is an error, not
/// slice 0/2).
bool parse_slice_spec(const std::string& spec, int& index, int& count) {
  if (spec.empty()) {
    index = 0;
    count = 1;
    return true;
  }
  auto parse_full = [](std::string_view token, int& out) {
    auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(),
                                     out);
    return ec == std::errc() && ptr == token.data() + token.size();
  };
  std::size_t slash = spec.find('/');
  if (slash == std::string::npos ||
      !parse_full(std::string_view(spec).substr(0, slash), index) ||
      !parse_full(std::string_view(spec).substr(slash + 1), count)) {
    std::fprintf(stderr, "--slice expects i/m (e.g. 0/4), got '%s'\n",
                 spec.c_str());
    return false;
  }
  if (count < 1 || index < 0 || index >= count) {
    std::fprintf(stderr, "--slice index out of range: %s\n", spec.c_str());
    return false;
  }
  return true;
}

int cmd_sweep(int argc, const char* const* argv) {
  CommonArgs args;
  int networks = 10, pairs = 10, threads = 0;
  std::string slice_spec, json_path;
  FlagSet flags("spr_cli sweep: mini paper sweep");
  add_common(flags, args);
  flags.add_int("networks", &networks, "networks per point");
  flags.add_int("pairs", &pairs, "pairs per network");
  flags.add_int("threads", &threads, "sweep threads (0=hardware, 1=serial)");
  flags.add_string("slice", &slice_spec,
                   "compute only slice i/m of the sweep's cells");
  flags.add_string("json", &json_path,
                   "write the per-cell aggregates as a slice JSON here");
  if (!flags.parse(argc, argv) || !validate_common(args) ||
      !count_at_least("networks", networks, 1) ||
      !count_at_least("pairs", pairs, 1)) {
    return 1;
  }
  int slice_index = 0, slice_count = 1;
  if (!parse_slice_spec(slice_spec, slice_index, slice_count)) return 1;
  if (slice_count > 1 && json_path.empty()) {
    std::fprintf(stderr, "--slice needs --json <path> to store the slice\n");
    return 1;
  }

  SweepConfig config;
  config.model = args.fa ? DeployModel::kForbiddenAreas : DeployModel::kIdeal;
  config.networks_per_point = networks;
  config.pairs_per_network = pairs;
  config.base_seed = args.seed;
  config.threads = threads;
  config.schemes = SweepConfig::paper_schemes();
  config.deployment_template.radio_range = args.range;

  if (json_path.empty()) {
    // Plain in-process sweep.
    print_sweep_table(run_sweep(config));
    return 0;
  }

  // Serialized path: compute this slice's cells and persist them in full
  // (sample-retaining) form, so `spr_cli merge` can reproduce the sweep
  // bit-identically from the slice files.
  auto cells = run_sweep_slice(config, slice_index, slice_count);
  std::size_t cell_count = cells.size();
  SweepSlice slice = make_slice(config, slice_index, slice_count,
                                std::move(cells));
  JsonWriter w;
  to_json(w, slice);
  if (!w.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (slice_count == 1) {
    std::vector<std::string> labels;
    for (const auto& spec : config.schemes)
      labels.push_back(spec.display_label());
    print_sweep_table(
        merge_cell_results(config.node_counts, labels, slice.cells));
  }
  std::printf("wrote slice %d/%d (%zu cells) to %s\n", slice_index,
              slice_count, cell_count, json_path.c_str());
  return 0;
}

int cmd_merge(int argc, const char* const* argv) {
  std::string json_path;
  FlagSet flags(
      "spr_cli merge <slice.json>...: merge serialized sweep slices");
  flags.add_string("json", &json_path, "also write the merged report here");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: spr_cli merge [flags] <slice.json>...\n");
    return 1;
  }

  std::vector<SweepSlice> slices;
  for (const std::string& path : flags.positional()) {
    JsonValue document;
    std::string error;
    if (!JsonValue::parse_file(path, document, &error)) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    SweepSlice slice;
    if (!from_json(document, slice)) {
      std::fprintf(stderr, "%s: not a spr sweep slice file\n", path.c_str());
      return 1;
    }
    slices.push_back(std::move(slice));
  }

  // Header identity, kept before the slices move into the merge.
  const std::string model_tag = slices.front().model_tag;
  const std::vector<std::string> scheme_labels = slices.front().scheme_labels;
  const int networks_per_point = slices.front().networks_per_point;
  const int pairs_per_network = slices.front().pairs_per_network;
  const std::uint64_t base_seed = slices.front().base_seed;

  std::vector<SweepPoint> points;
  std::string error;
  if (!merge_slices(std::move(slices), points, &error)) {
    std::fprintf(stderr, "merge failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("merged %zu slice file(s): %s model, %d networks x %d pairs "
              "per point, seed %llu\n",
              flags.positional().size(), model_tag.c_str(),
              networks_per_point, pairs_per_network,
              static_cast<unsigned long long>(base_seed));
  Table table({"nodes", "scheme", "avg hops", "max hops", "delivery"});
  for (const auto& point : points) {
    for (const auto& label : scheme_labels) {
      const auto& agg = point.by_scheme.at(label);
      table.add_row({std::to_string(point.node_count), label,
                     Table::fmt(agg.hops.mean()),
                     Table::fmt(agg.max_hops(), 0),
                     Table::fmt(agg.delivery_ratio())});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  if (!json_path.empty()) {
    SweepSection section;
    if (!deploy_model_from_tag(model_tag, section.model)) {
      section.model = DeployModel::kIdeal;
    }
    section.networks_per_point = networks_per_point;
    section.pairs_per_network = pairs_per_network;
    section.base_seed = base_seed;
    section.points = points;
    JsonWriter w;
    w.begin_object();
    w.key("scenario").value("merge");
    w.key("shards").value(
        static_cast<std::uint64_t>(flags.positional().size()));
    w.key("models").begin_array();
    sweep_section_to_json(w, section);
    w.end_array();
    w.end_object();
    if (!w.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_validate(int argc, const char* const* argv) {
  FlagSet flags(
      "spr_cli validate <file.json>...: parse JSON artifacts with the "
      "bundled reader (CI validity gate)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: spr_cli validate <file.json>...\n");
    return 1;
  }
  int failures = 0;
  for (const std::string& path : flags.positional()) {
    JsonValue document;
    std::string error;
    if (JsonValue::parse_file(path, document, &error)) {
      std::printf("%s: valid JSON (%zu top-level members)\n", path.c_str(),
                  document.size());
    } else {
      std::fprintf(stderr, "%s: INVALID — %s\n", path.c_str(), error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_scenario(int argc, const char* const* argv) {
  int networks = 0, pairs = 0, threads = 0;
  unsigned long long seed = 0;
  bool list = false;
  std::string formats, json_path, csv_path, svg_path;
  FlagSet flags("spr_cli scenario <name>: run a registered scenario");
  flags.add_bool("list", &list, "list the registered scenarios");
  flags.add_int("networks", &networks, "networks per point (0=default)");
  flags.add_int("pairs", &pairs, "pairs per network (0=default)");
  flags.add_uint64("seed", &seed, "base seed (0=default)");
  flags.add_int("threads", &threads, "sweep threads (0=hardware, 1=serial)");
  flags.add_string("format", &formats,
                   "report sinks, comma-separated: console,json,csv,svg");
  flags.add_string("json", &json_path, "also write a JSON report here");
  flags.add_string("csv", &csv_path, "also write CSV table exports here");
  flags.add_string("svg", &svg_path, "also write an SVG sweep plot here");
  // 0 keeps meaning "the scenario's default size".
  if (!flags.parse(argc, argv) || !count_at_least("networks", networks, 0) ||
      !count_at_least("pairs", pairs, 0)) {
    return 1;
  }

  const auto& suite = ScenarioSuite::builtin();
  if (list || flags.positional().empty()) {
    std::printf("registered scenarios:\n");
    for (const auto& s : suite.scenarios()) {
      std::printf("  %-18s %s\n", s.name.c_str(), s.description.c_str());
    }
    return list ? 0 : 1;
  }

  ScenarioOptions opts;
  opts.networks = networks;
  opts.pairs = pairs;
  opts.seed = seed;
  opts.threads = threads;
  opts.formats = formats;
  opts.json_path = json_path;
  opts.csv_path = csv_path;
  opts.svg_path = svg_path;
  return suite.run(flags.positional().front(), opts);
}

int cmd_render(int argc, const char* const* argv) {
  CommonArgs args;
  FlagSet flags("spr_cli render <out.svg>: render the deployment");
  add_common(flags, args);
  if (!flags.parse(argc, argv) || !validate_common(args)) return 1;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: spr_cli render [flags] <out.svg>\n");
    return 1;
  }
  Network net = build_network(args);
  const auto& g = net.graph();
  SvgCanvas svg(net.deployment().field, 4.0);
  for (const Polygon& area : net.deployment().forbidden_areas) {
    svg.polygon(area, "#f4c7c3", "#c0392b", 0.3, 0.8);
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (v > u) svg.line(g.position(u), g.position(v), "#dddddd", 0.15, 0.6);
    }
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    bool unsafe = false;
    for (ZoneType t : kAllZoneTypes) unsafe |= !net.safety().is_safe(u, t);
    svg.circle(g.position(u), 0.9, unsafe ? "#e67e22" : "#7f8c8d");
  }
  const std::string& path = flags.positional().front();
  if (!svg.write_file(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu elements)\n", path.c_str(), svg.element_count());
  return 0;
}

void usage() {
  std::fputs(
      "usage: spr_cli <info|label|route|sweep|merge|validate|run|scenario|"
      "render> [flags...]\n"
      "('run' and 'scenario' are synonyms)\n"
      "run 'spr_cli <command> --help' for per-command flags\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string command = argv[1];
  // Shift argv so each command parses its own flags.
  int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "info") return cmd_info(sub_argc, sub_argv);
  if (command == "label") return cmd_label(sub_argc, sub_argv);
  if (command == "route") return cmd_route(sub_argc, sub_argv);
  if (command == "sweep") return cmd_sweep(sub_argc, sub_argv);
  if (command == "merge") return cmd_merge(sub_argc, sub_argv);
  if (command == "validate") return cmd_validate(sub_argc, sub_argv);
  if (command == "scenario" || command == "run") {
    return cmd_scenario(sub_argc, sub_argv);
  }
  if (command == "render") return cmd_render(sub_argc, sub_argv);
  usage();
  return 1;
}
