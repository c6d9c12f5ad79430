#include "report/serialize.h"

#include <algorithm>
#include <set>
#include <utility>

namespace spr {

namespace {

JsonValue count_json(std::size_t n) {
  return JsonValue::of(static_cast<std::uint64_t>(n));
}

}  // namespace

// ------------------------------------------------------------ stats form

JsonValue stats_json(const Summary& s) {
  JsonValue v = JsonValue::object();
  v.set("count", count_json(s.count()));
  v.set("mean", JsonValue::of(s.mean()));
  v.set("min", JsonValue::of(s.min()));
  v.set("max", JsonValue::of(s.max()));
  v.set("stddev", JsonValue::of(s.stddev()));
  return v;
}

JsonValue stats_json(const RouteAggregate& agg) {
  JsonValue v = JsonValue::object();
  v.set("requested", count_json(agg.requested));
  v.set("attempted", count_json(agg.attempted));
  v.set("pair_shortfall", count_json(agg.pair_shortfall()));
  v.set("delivered", count_json(agg.delivered));
  v.set("delivery_ratio", JsonValue::of(agg.delivery_ratio()));
  v.set("hops", stats_json(agg.hops));
  v.set("length", stats_json(agg.length));
  v.set("stretch_hops", stats_json(agg.stretch_hops));
  v.set("stretch_length", stats_json(agg.stretch_length));
  v.set("perimeter_hops", stats_json(agg.perimeter_hops));
  v.set("backup_hops", stats_json(agg.backup_hops));
  v.set("local_minima", stats_json(agg.local_minima));
  return v;
}

JsonValue stats_json(const SweepSection& section) {
  JsonValue points = JsonValue::array();
  for (const auto& point : section.points) {
    JsonValue schemes = JsonValue::object();
    for (const auto& [label, agg] : point.by_scheme) {
      schemes.set(label, stats_json(agg));
    }
    JsonValue entry = JsonValue::object();
    entry.set("nodes", JsonValue::of(point.node_count));
    entry.set("schemes", std::move(schemes));
    points.push(std::move(entry));
  }
  JsonValue v = JsonValue::object();
  v.set("model", JsonValue::of(deploy_model_tag(section.model)));
  v.set("networks_per_point", JsonValue::of(section.networks_per_point));
  v.set("pairs_per_network", JsonValue::of(section.pairs_per_network));
  v.set("base_seed", JsonValue::of(section.base_seed));
  v.set("points", std::move(points));
  return v;
}

JsonValue stats_json(const StreamStats& stats) {
  JsonValue root = JsonValue::object();
  root.set("virtual_time", JsonValue::of(stats.virtual_time));
  root.set("events", count_json(stats.events));
  root.set("repins", count_json(stats.repins));
  JsonValue waves = JsonValue::array();
  for (const WaveRecord& record : stats.waves) {
    JsonValue wave = JsonValue::object();
    wave.set("time", JsonValue::of(record.time));
    wave.set("casualties", count_json(record.casualties));
    wave.set("packets_in_flight", count_json(record.packets_in_flight));
    wave.set("packets_dropped", count_json(record.packets_dropped));
    wave.set("relabel_seeds", count_json(record.relabel.seeds));
    wave.set("relabel_reevaluations", count_json(record.relabel.reevaluations));
    wave.set("relabel_flips", count_json(record.relabel.flips));
    if (record.verified) {
      wave.set("matches_full_recompute",
               JsonValue::of(record.matches_full_recompute));
    }
    waves.push(std::move(wave));
  }
  root.set("waves", std::move(waves));
  JsonValue repins = JsonValue::array();
  for (const RepinRecord& record : stats.repin_records) {
    JsonValue repin = JsonValue::object();
    repin.set("time", JsonValue::of(record.time));
    repin.set("moved", count_json(record.moved));
    repin.set("edges_added", count_json(record.edges_added));
    repin.set("edges_removed", count_json(record.edges_removed));
    repin.set("packets_in_flight", count_json(record.packets_in_flight));
    repin.set("packets_dropped", count_json(record.packets_dropped));
    repin.set("relabel_seeds", count_json(record.relabel.seeds));
    repin.set("relabel_reevaluations",
              count_json(record.relabel.reevaluations));
    repin.set("relabel_demotions", count_json(record.relabel.flips));
    repin.set("relabel_promotions", count_json(record.relabel.promotions));
    if (record.verified) {
      repin.set("matches_full_recompute",
                JsonValue::of(record.matches_full_recompute));
    }
    repins.push(std::move(repin));
  }
  root.set("repin_records", std::move(repins));
  JsonValue schemes = JsonValue::object();
  for (const StreamSchemeStats& s : stats.schemes) {
    JsonValue scheme = JsonValue::object();
    scheme.set("injected", count_json(s.injected));
    scheme.set("delivered", count_json(s.delivered));
    scheme.set("dead_end", count_json(s.dead_end));
    scheme.set("ttl_expired", count_json(s.ttl_expired));
    scheme.set("node_failed", count_json(s.node_failed));
    scheme.set("delivery_ratio", JsonValue::of(s.delivery_ratio()));
    scheme.set("hops", stats_json(s.hops));
    scheme.set("length", stats_json(s.length));
    scheme.set("stretch_hops", stats_json(s.stretch_hops));
    scheme.set("latency", stats_json(s.latency));
    scheme.set("replans", stats_json(s.replans));
    scheme.set("local_minima", stats_json(s.local_minima));
    schemes.set(s.label, std::move(scheme));
  }
  root.set("schemes", std::move(schemes));
  return root;
}

// ------------------------------------------------------------- full form

namespace {

bool read_uint(const JsonValue& v, const char* key, std::uint64_t& out) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || !m->is_integer()) return false;
  out = m->as_uint64();
  return true;
}

bool read_size(const JsonValue& v, const char* key, std::size_t& out) {
  std::uint64_t u = 0;
  if (!read_uint(v, key, u)) return false;
  out = static_cast<std::size_t>(u);
  return true;
}

bool read_int(const JsonValue& v, const char* key, int& out) {
  const JsonValue* m = v.find(key);
  if (m == nullptr || !m->is_integer()) return false;
  std::int64_t i = m->as_int64(INT64_MIN);
  if (i < INT32_MIN || i > INT32_MAX) return false;
  out = static_cast<int>(i);
  return true;
}

bool read_summary(const JsonValue& v, const char* key, Summary& out) {
  const JsonValue* m = v.find(key);
  return m != nullptr && from_json(*m, out);
}

}  // namespace

JsonValue to_json(const Summary& s) {
  JsonValue values = JsonValue::array();
  for (double value : s.values()) values.push(JsonValue::of(value));
  JsonValue v = JsonValue::object();
  v.set("values", std::move(values));
  return v;
}

bool from_json(const JsonValue& v, Summary& out) {
  const JsonValue* values = v.find("values");
  if (values == nullptr || !values->is_array()) return false;
  Summary s;
  for (const JsonValue& item : values->items()) {
    if (!item.is_number()) return false;  // null = a non-finite sample; reject
    s.add(item.as_double());
  }
  out = std::move(s);
  return true;
}

JsonValue to_json(const RouteAggregate& agg) {
  JsonValue v = JsonValue::object();
  v.set("requested", count_json(agg.requested));
  v.set("attempted", count_json(agg.attempted));
  v.set("delivered", count_json(agg.delivered));
  v.set("hops", to_json(agg.hops));
  v.set("length", to_json(agg.length));
  v.set("stretch_hops", to_json(agg.stretch_hops));
  v.set("stretch_length", to_json(agg.stretch_length));
  v.set("perimeter_hops", to_json(agg.perimeter_hops));
  v.set("backup_hops", to_json(agg.backup_hops));
  v.set("local_minima", to_json(agg.local_minima));
  return v;
}

bool from_json(const JsonValue& v, RouteAggregate& out) {
  if (!v.is_object()) return false;
  RouteAggregate agg;
  if (!read_size(v, "requested", agg.requested) ||
      !read_size(v, "attempted", agg.attempted) ||
      !read_size(v, "delivered", agg.delivered) ||
      !read_summary(v, "hops", agg.hops) ||
      !read_summary(v, "length", agg.length) ||
      !read_summary(v, "stretch_hops", agg.stretch_hops) ||
      !read_summary(v, "stretch_length", agg.stretch_length) ||
      !read_summary(v, "perimeter_hops", agg.perimeter_hops) ||
      !read_summary(v, "backup_hops", agg.backup_hops) ||
      !read_summary(v, "local_minima", agg.local_minima)) {
    return false;
  }
  out = std::move(agg);
  return true;
}

JsonValue to_json(const CellResult& cell) {
  JsonValue v = JsonValue::object();
  for (const auto& [label, agg] : cell) v.set(label, to_json(agg));
  return v;
}

bool from_json(const JsonValue& v, CellResult& out) {
  if (!v.is_object()) return false;
  CellResult cell;
  for (const auto& [label, value] : v.members()) {
    RouteAggregate agg;
    if (!from_json(value, agg)) return false;
    if (!cell.emplace(label, std::move(agg)).second) return false;
  }
  out = std::move(cell);
  return true;
}

JsonValue to_json(const SweepPoint& point) {
  JsonValue v = JsonValue::object();
  v.set("nodes", JsonValue::of(point.node_count));
  v.set("schemes", to_json(point.by_scheme));
  return v;
}

bool from_json(const JsonValue& v, SweepPoint& out) {
  if (!v.is_object()) return false;
  SweepPoint point;
  if (!read_int(v, "nodes", point.node_count)) return false;
  if (!from_json(v.get("schemes"), point.by_scheme)) return false;
  out = std::move(point);
  return true;
}

// ------------------------------------------------------------ slice files

namespace {
constexpr int kShardFormatVersion = 1;
}  // namespace

SweepSlice make_slice(const SweepConfig& config, int slice_index,
                      int slice_count, std::vector<SliceCell> cells) {
  SweepSlice slice;
  slice.model_tag = deploy_model_tag(config.model);
  slice.node_counts = config.node_counts;
  slice.networks_per_point = config.networks_per_point;
  slice.pairs_per_network = config.pairs_per_network;
  slice.base_seed = config.base_seed;
  for (const auto& spec : config.schemes) {
    slice.scheme_labels.push_back(spec.display_label());
  }
  slice.slice_index = slice_index;
  slice.slice_count = slice_count;
  slice.cells = std::move(cells);
  return slice;
}

JsonValue to_json(const SweepSlice& slice) {
  JsonValue node_counts = JsonValue::array();
  for (int n : slice.node_counts) node_counts.push(JsonValue::of(n));
  JsonValue schemes = JsonValue::array();
  for (const auto& label : slice.scheme_labels) {
    schemes.push(JsonValue::of(label));
  }
  JsonValue cells = JsonValue::array();
  for (const auto& cell : slice.cells) {
    JsonValue entry = JsonValue::object();
    entry.set("node_count", JsonValue::of(cell.node_count));
    entry.set("net_index", JsonValue::of(cell.net_index));
    entry.set("results", to_json(cell.result));
    cells.push(std::move(entry));
  }
  JsonValue v = JsonValue::object();
  v.set("spr_shard", JsonValue::of(kShardFormatVersion));
  v.set("model", JsonValue::of(slice.model_tag));
  v.set("node_counts", std::move(node_counts));
  v.set("networks_per_point", JsonValue::of(slice.networks_per_point));
  v.set("pairs_per_network", JsonValue::of(slice.pairs_per_network));
  v.set("base_seed", JsonValue::of(slice.base_seed));
  v.set("schemes", std::move(schemes));
  v.set("shard_index", JsonValue::of(slice.slice_index));
  v.set("shard_count", JsonValue::of(slice.slice_count));
  v.set("cells", std::move(cells));
  return v;
}

bool from_json(const JsonValue& v, SweepSlice& out) {
  if (!v.is_object()) return false;
  int version = 0;
  if (!read_int(v, "spr_shard", version) || version != kShardFormatVersion) {
    return false;
  }
  SweepSlice slice;
  const JsonValue* model = v.find("model");
  if (model == nullptr || !model->is_string()) return false;
  slice.model_tag = model->as_string();
  DeployModel parsed_model;
  if (!deploy_model_from_tag(slice.model_tag, parsed_model)) return false;

  const JsonValue* counts = v.find("node_counts");
  if (counts == nullptr || !counts->is_array()) return false;
  for (const JsonValue& n : counts->items()) {
    std::int64_t count = n.is_integer() ? n.as_int64(INT64_MIN) : INT64_MIN;
    if (count < 0 || count > INT32_MAX) return false;
    slice.node_counts.push_back(static_cast<int>(count));
  }
  if (!read_int(v, "networks_per_point", slice.networks_per_point) ||
      !read_int(v, "pairs_per_network", slice.pairs_per_network) ||
      !read_uint(v, "base_seed", slice.base_seed) ||
      !read_int(v, "shard_index", slice.slice_index) ||
      !read_int(v, "shard_count", slice.slice_count)) {
    return false;
  }
  const JsonValue* schemes = v.find("schemes");
  if (schemes == nullptr || !schemes->is_array()) return false;
  for (const JsonValue& label : schemes->items()) {
    if (!label.is_string()) return false;
    slice.scheme_labels.push_back(label.as_string());
  }
  const JsonValue* cells = v.find("cells");
  if (cells == nullptr || !cells->is_array()) return false;
  for (const JsonValue& c : cells->items()) {
    SliceCell cell;
    if (!read_int(c, "node_count", cell.node_count) ||
        !read_int(c, "net_index", cell.net_index) ||
        !from_json(c.get("results"), cell.result)) {
      return false;
    }
    slice.cells.push_back(std::move(cell));
  }
  out = std::move(slice);
  return true;
}

namespace {

bool same_sweep(const SweepSlice& a, const SweepSlice& b) {
  return a.model_tag == b.model_tag && a.node_counts == b.node_counts &&
         a.networks_per_point == b.networks_per_point &&
         a.pairs_per_network == b.pairs_per_network &&
         a.base_seed == b.base_seed && a.scheme_labels == b.scheme_labels;
}

bool merge_fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

bool merge_slices(std::vector<SweepSlice> slices,
                  std::vector<SweepPoint>& out_points, std::string* error) {
  if (slices.empty()) return merge_fail(error, "no slices to merge");
  const SweepSlice& head = slices.front();
  for (std::size_t i = 1; i < slices.size(); ++i) {
    if (!same_sweep(head, slices[i])) {
      return merge_fail(error,
                        "slice " + std::to_string(i) +
                            " belongs to a different sweep (config mismatch)");
    }
  }

  std::vector<SliceCell> cells;
  std::set<std::pair<int, int>> seen;
  for (const SweepSlice& slice : slices) {
    for (const SliceCell& cell : slice.cells) {
      if (std::find(head.node_counts.begin(), head.node_counts.end(),
                    cell.node_count) == head.node_counts.end()) {
        return merge_fail(error, "cell at unknown node count " +
                                     std::to_string(cell.node_count));
      }
      if (cell.net_index < 0 || cell.net_index >= head.networks_per_point) {
        return merge_fail(error, "cell net_index " +
                                     std::to_string(cell.net_index) +
                                     " out of range");
      }
      if (!seen.emplace(cell.node_count, cell.net_index).second) {
        return merge_fail(error,
                          "duplicate cell (" + std::to_string(cell.node_count) +
                              ", " + std::to_string(cell.net_index) + ")");
      }
      // Every cell must carry exactly the sweep's scheme set — a missing or
      // extra label means a truncated/foreign slice, and merge_cell_results
      // would silently skip it, corrupting the bit-identical guarantee.
      if (cell.result.size() != head.scheme_labels.size()) {
        return merge_fail(error,
                          "cell (" + std::to_string(cell.node_count) + ", " +
                              std::to_string(cell.net_index) + ") has " +
                              std::to_string(cell.result.size()) +
                              " scheme results, expected " +
                              std::to_string(head.scheme_labels.size()));
      }
      for (const auto& label : head.scheme_labels) {
        if (cell.result.find(label) == cell.result.end()) {
          return merge_fail(error, "cell (" +
                                       std::to_string(cell.node_count) + ", " +
                                       std::to_string(cell.net_index) +
                                       ") is missing scheme '" + label + "'");
        }
      }
      cells.push_back(cell);
    }
  }
  std::size_t expected = head.node_counts.size() *
                         static_cast<std::size_t>(head.networks_per_point);
  if (cells.size() != expected) {
    return merge_fail(error, "incomplete sweep: " +
                                 std::to_string(cells.size()) + " of " +
                                 std::to_string(expected) + " cells present");
  }
  out_points = merge_cell_results(head.node_counts, head.scheme_labels,
                                  std::move(cells));
  return true;
}

}  // namespace spr
