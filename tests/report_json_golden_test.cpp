/// \file report_json_golden_test.cpp
/// Byte-identity of the JSON artifacts: the documents JsonSink renders for
/// the byte-stable scenarios (no wall-clock or thread-count value enters
/// them), for a hand-built report that exercises every section kind, and
/// the sweep slice file. The goldens are FNV-1a 64 hashes plus lengths of
/// captured documents (the hand-built report is verbatim), so any drift in
/// key order, number formatting or escaping fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/scenario.h"
#include "report/serialize.h"
#include "report/sink.h"

namespace spr {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Golden {
  std::uint64_t hash;
  std::size_t length;
};

void expect_golden(const std::string& document, Golden golden,
                   const char* what) {
  EXPECT_EQ(document.size(), golden.length) << what;
  EXPECT_EQ(fnv1a64(document), golden.hash)
      << what << ": 0x" << std::hex << fnv1a64(document) << std::dec
      << " length " << document.size();
}

std::string render_scenario(const char* name, const ScenarioOptions& opts) {
  const Scenario* scenario = ScenarioSuite::builtin().find(name);
  EXPECT_NE(scenario, nullptr) << name;
  if (scenario == nullptr) return {};
  ScenarioReport report;
  report.scenario = name;
  EXPECT_EQ(scenario->build(opts, report), 0) << name;
  return JsonSink::render(report);
}

TEST(JsonGolden, StreamingDelivery) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 4; opts.threads = 2;
  expect_golden(render_scenario("streaming-delivery", opts),
                {0x6a37f1ff3359d9f5ULL, 31137}, "streaming-delivery");
}

TEST(JsonGolden, MobilityRate) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 4; opts.threads = 2;
  expect_golden(render_scenario("mobility-rate", opts),
                {0x171d6f4f2b8786d0ULL, 34681}, "mobility-rate");
}

TEST(JsonGolden, FailureDynamics) {
  ScenarioOptions opts;
  opts.networks = 2; opts.seed = 3; opts.threads = 2;
  expect_golden(render_scenario("failure-dynamics", opts),
                {0x958ebe7db43b9a67ULL, 497}, "failure-dynamics");
}

TEST(JsonGolden, MobileStream) {
  ScenarioOptions opts;
  opts.networks = 3; opts.seed = 9;
  expect_golden(render_scenario("mobile-stream", opts),
                {0x585e4e19dae1ddd7ULL, 197}, "mobile-stream");
}

/// Every section kind a report can carry, in the order JsonSink writes
/// them: params (every JsonValue kind, a non-finite double as null), a
/// timings breakdown, a sweep section with a fixed wall time, and notes.
TEST(JsonGolden, HandBuiltReportCoversEverySection) {
  ScenarioReport report;
  report.scenario = "unit \"golden\"";
  report.param("nothing", JsonValue());
  report.param("flag", JsonValue::of(true));
  report.param("signed", JsonValue::of(std::int64_t{-42}));
  report.param("seed", JsonValue::of(std::uint64_t{18446744073709551615ULL}));
  report.param("ratio", JsonValue::of(1.0 / 3.0));
  report.param("unbounded",
               JsonValue::of(std::numeric_limits<double>::infinity()));
  report.param("undefined",
               JsonValue::of(std::numeric_limits<double>::quiet_NaN()));
  report.param("label", JsonValue::of("tab\there\nline"));
  JsonValue list = JsonValue::array();
  list.push(JsonValue::of(1)).push(JsonValue::of(2.5)).push(JsonValue());
  report.param("list", std::move(list));
  JsonValue nested = JsonValue::object();
  nested.set("k", JsonValue::of("v")).set("empty", JsonValue::array());
  report.param("nested", std::move(nested));

  SweepTimings timings;
  timings.construction_seconds = 1.25;
  timings.pair_draw_seconds = 0.5;
  timings.oracle_seconds = 2.0 / 3.0;
  timings.routing_seconds = 0.125;
  timings.pairs_requested = 20;
  timings.pairs_routed = 19;
  report.param("timings", to_json(timings));

  SweepSection section;
  section.model = DeployModel::kForbiddenAreas;
  section.networks_per_point = 2;
  section.pairs_per_network = 3;
  section.base_seed = 2009;
  section.threads = 4;
  section.wall_seconds = 0.75;
  SweepPoint point;
  point.node_count = 400;
  RouteAggregate agg;
  agg.requested = 3;
  agg.attempted = 2;
  agg.delivered = 1;
  agg.hops.add(4.0);
  agg.hops.add(7.0);
  agg.length.add(81.5);
  point.by_scheme.emplace("SLGF2", agg);
  point.by_scheme.emplace("GF", RouteAggregate{});
  section.points.push_back(std::move(point));
  report.sweeps.push_back(std::move(section));

  report.note("first note");
  report.note("second \\ note");

  const std::string expected =
      R"GOLD({"scenario":"unit \"golden\"","nothing":null,"flag":true,)GOLD"
      R"GOLD("signed":-42,"seed":18446744073709551615,)GOLD"
      R"GOLD("ratio":0.33333333333333331,"unbounded":null,"undefined":null,)GOLD"
      R"GOLD("label":"tab\there\nline","list":[1,2.5,null],"nested":{"k":"v",)GOLD"
      R"GOLD("empty":[]},"timings":{"construction_seconds":1.25,)GOLD"
      R"GOLD("pair_draw_seconds":0.5,"oracle_seconds":0.66666666666666663,)GOLD"
      R"GOLD("routing_seconds":0.125,"pairs_requested":20,)GOLD"
      R"GOLD("pairs_routed":19},"models":[{"model":"FA","networks_per_point":2,)GOLD"
      R"GOLD("pairs_per_network":3,"base_seed":2009,"threads":4,)GOLD"
      R"GOLD("wall_seconds":0.75,"points":[{"nodes":400,)GOLD"
      R"GOLD("schemes":{"GF":{"requested":0,"attempted":0,"pair_shortfall":0,)GOLD"
      R"GOLD("delivered":0,"delivery_ratio":0,"hops":{"count":0,"mean":0,)GOLD"
      R"GOLD("min":0,"max":0,"stddev":0},"length":{"count":0,"mean":0,"min":0,)GOLD"
      R"GOLD("max":0,"stddev":0},"stretch_hops":{"count":0,"mean":0,"min":0,)GOLD"
      R"GOLD("max":0,"stddev":0},"stretch_length":{"count":0,"mean":0,"min":0,)GOLD"
      R"GOLD("max":0,"stddev":0},"perimeter_hops":{"count":0,"mean":0,"min":0,)GOLD"
      R"GOLD("max":0,"stddev":0},"backup_hops":{"count":0,"mean":0,"min":0,)GOLD"
      R"GOLD("max":0,"stddev":0},"local_minima":{"count":0,"mean":0,"min":0,)GOLD"
      R"GOLD("max":0,"stddev":0}},"SLGF2":{"requested":3,"attempted":2,)GOLD"
      R"GOLD("pair_shortfall":1,"delivered":1,"delivery_ratio":0.5,)GOLD"
      R"GOLD("hops":{"count":2,"mean":5.5,"min":4,"max":7,)GOLD"
      R"GOLD("stddev":2.1213203435596424},"length":{"count":1,"mean":81.5,)GOLD"
      R"GOLD("min":81.5,"max":81.5,"stddev":0},"stretch_hops":{"count":0,)GOLD"
      R"GOLD("mean":0,"min":0,"max":0,"stddev":0},"stretch_length":{"count":0,)GOLD"
      R"GOLD("mean":0,"min":0,"max":0,"stddev":0},"perimeter_hops":{"count":0,)GOLD"
      R"GOLD("mean":0,"min":0,"max":0,"stddev":0},"backup_hops":{"count":0,)GOLD"
      R"GOLD("mean":0,"min":0,"max":0,"stddev":0},"local_minima":{"count":0,)GOLD"
      R"GOLD("mean":0,"min":0,"max":0,"stddev":0}}}}]}],"notes":["first note",)GOLD"
      R"GOLD("second \\ note"]})GOLD";
  EXPECT_EQ(JsonSink::render(report), expected);
}

/// The slice file of a fixed two-point sweep (one network, two pairs per
/// point), as `spr_cli sweep --slice` writes it.
TEST(JsonGolden, SweepSliceFile) {
  SweepConfig config;
  config.node_counts = {400, 500};
  config.networks_per_point = 1;
  config.pairs_per_network = 2;
  config.base_seed = 5;
  config.threads = 1;
  config.schemes = SweepConfig::paper_schemes();
  SweepSlice slice = make_slice(config, 0, 1, run_sweep_slice(config, 0, 1));
  expect_golden(to_json(slice).dump(), {0xc6ad1f5a5f72ef74ULL, 2980}, "slice");
}

}  // namespace
}  // namespace spr
