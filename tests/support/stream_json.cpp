#include "support/stream_json.h"

#include "report/serialize.h"

namespace spr::test {

namespace {

JsonValue count_json(std::size_t n) {
  return JsonValue::of(static_cast<std::uint64_t>(n));
}

JsonValue full_json(const IncrementalStats& stats) {
  JsonValue v = JsonValue::object();
  v.set("seeds", count_json(stats.seeds));
  v.set("reevaluations", count_json(stats.reevaluations));
  v.set("flips", count_json(stats.flips));
  v.set("promotions", count_json(stats.promotions));
  v.set("anchor_recomputes", count_json(stats.anchor_recomputes));
  v.set("arena_high_water", count_json(stats.arena_high_water));
  return v;
}

JsonValue full_json(const WaveRecord& record) {
  JsonValue v = JsonValue::object();
  v.set("time", JsonValue::of(record.time));
  v.set("casualties", count_json(record.casualties));
  v.set("packets_in_flight", count_json(record.packets_in_flight));
  v.set("packets_dropped", count_json(record.packets_dropped));
  v.set("relabel", full_json(record.relabel));
  v.set("verified", JsonValue::of(record.verified));
  v.set("matches_full_recompute", JsonValue::of(record.matches_full_recompute));
  return v;
}

JsonValue full_json(const RepinRecord& record) {
  JsonValue v = JsonValue::object();
  v.set("time", JsonValue::of(record.time));
  v.set("moved", count_json(record.moved));
  v.set("edges_added", count_json(record.edges_added));
  v.set("edges_removed", count_json(record.edges_removed));
  v.set("packets_in_flight", count_json(record.packets_in_flight));
  v.set("packets_dropped", count_json(record.packets_dropped));
  v.set("relabel", full_json(record.relabel));
  v.set("verified", JsonValue::of(record.verified));
  v.set("matches_full_recompute", JsonValue::of(record.matches_full_recompute));
  return v;
}

JsonValue full_json(const StreamSchemeStats& stats) {
  JsonValue v = JsonValue::object();
  v.set("label", JsonValue::of(stats.label));
  v.set("injected", count_json(stats.injected));
  v.set("delivered", count_json(stats.delivered));
  v.set("dead_end", count_json(stats.dead_end));
  v.set("ttl_expired", count_json(stats.ttl_expired));
  v.set("node_failed", count_json(stats.node_failed));
  v.set("hops", to_json(stats.hops));
  v.set("length", to_json(stats.length));
  v.set("stretch_hops", to_json(stats.stretch_hops));
  v.set("latency", to_json(stats.latency));
  v.set("replans", to_json(stats.replans));
  v.set("local_minima", to_json(stats.local_minima));
  return v;
}

template <typename Record>
JsonValue full_json_array(const std::vector<Record>& records) {
  JsonValue out = JsonValue::array();
  for (const Record& record : records) out.push(full_json(record));
  return out;
}

}  // namespace

std::string stream_full_json(const StreamStats& stats) {
  JsonValue v = JsonValue::object();
  v.set("virtual_time", JsonValue::of(stats.virtual_time));
  v.set("events", count_json(stats.events));
  v.set("repins", count_json(stats.repins));
  v.set("waves", full_json_array(stats.waves));
  v.set("repin_records", full_json_array(stats.repin_records));
  v.set("schemes", full_json_array(stats.schemes));
  return v.dump();
}

}  // namespace spr::test
