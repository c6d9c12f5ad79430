/// \file report_json_golden_test.cpp
/// Byte-identity of the JSON artifacts: the documents JsonSink renders for
/// the scenarios, for a hand-built report that exercises every section
/// kind, and the sweep slice file. No wall-clock or thread-count value
/// enters a report, so every scenario's document is a pure function of its
/// options and seed; the sweep scenarios are rendered at 1 and 4 threads
/// against one golden. The goldens are FNV-1a 64 hashes plus lengths of
/// captured documents (the hand-built report is verbatim), so any drift in
/// key order, number formatting, escaping or a single aggregate bit fails
/// here.
///
/// `figures` runs at the paper's own scale (100 networks x 20 pairs per
/// point, about 10 s in Release); Debug and sanitizer builds, which define
/// SPR_DCHECK_ENABLED, run it at 5 networks per point against their own
/// golden.

#include <gtest/gtest.h>

#include <bit>
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

ScenarioReport build_report(const char* name, const ScenarioOptions& opts) {
  ScenarioReport report;
  report.scenario = name;
  const Scenario* scenario = ScenarioSuite::builtin().find(name);
  EXPECT_NE(scenario, nullptr) << name;
  if (scenario != nullptr) {
    EXPECT_EQ(scenario->build(opts, report), 0) << name;
  }
  return report;
}

std::string render_scenario(const char* name, const ScenarioOptions& opts) {
  return JsonSink::render(build_report(name, opts));
}

/// Every count and every retained sample of every aggregate in the
/// report's sweep sections, as little-endian bytes in section, point and
/// label order. The document's stats form rounds: a one-ulp change to one
/// of 2,000 samples rarely moves a mean, so the sweep goldens pin these
/// bytes too.
std::string sweep_sample_bytes(const ScenarioReport& report) {
  std::string bytes;
  auto put = [&](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>((word >> (8 * i)) & 0xff));
    }
  };
  for (const SweepSection& section : report.sweeps) {
    for (const SweepPoint& point : section.points) {
      put(static_cast<std::uint64_t>(point.node_count));
      for (const auto& [label, agg] : point.by_scheme) {
        bytes += label;
        put(agg.requested);
        put(agg.attempted);
        put(agg.delivered);
        for (const Summary* summary :
             {&agg.hops, &agg.length, &agg.stretch_hops, &agg.stretch_length,
              &agg.perimeter_hops, &agg.backup_hops, &agg.local_minima}) {
          put(summary->count());
          for (double v : summary->values()) put(std::bit_cast<std::uint64_t>(v));
        }
      }
    }
  }
  return bytes;
}

TEST(JsonGolden, StreamingDelivery) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 4; opts.threads = 2;
  expect_golden(render_scenario("streaming-delivery", opts),
                {0x62cf70f3375894b9ULL, 31108}, "streaming-delivery");
}

TEST(JsonGolden, MobilityRate) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 4; opts.threads = 2;
  expect_golden(render_scenario("mobility-rate", opts),
                {0x4cdd3773255fb1f8ULL, 34623}, "mobility-rate");
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

/// Builds `name` at 1 and 4 threads: both documents must match
/// `document`, and both reports' sweep samples `samples`.
void expect_sweep_golden(const char* name, ScenarioOptions opts,
                         Golden document, Golden samples) {
  for (int threads : {1, 4}) {
    opts.threads = threads;
    const ScenarioReport report = build_report(name, opts);
    const std::string what =
        std::string(name) + " threads=" + std::to_string(threads);
    expect_golden(JsonSink::render(report), document, what.c_str());
    expect_golden(sweep_sample_bytes(report), samples,
                  (what + " samples").c_str());
  }
}

#ifdef SPR_DCHECK_ENABLED
constexpr int kFigureNetworks = 5;
constexpr Golden kFiguresDocument{0x36024a4b88463913ULL, 58296};
constexpr Golden kFiguresSamples{0xa4fb3e4a0fd25439ULL, 405804};
#else
constexpr int kFigureNetworks = 0;  // the scenario default: the paper's 100
constexpr Golden kFiguresDocument{0x027646bec6cd0da1ULL, 60372};
constexpr Golden kFiguresSamples{0x4a0942a7c27aaaa5ULL, 8001612};
#endif

/// Figs. 5-7 as the paper runs them: 9 node counts x 2 models, 20 pairs
/// per network, base seed 2009.
TEST(JsonGolden, FiguresAtPaperScale) {
  ScenarioOptions opts;
  opts.networks = kFigureNetworks;
  expect_sweep_golden("figures", opts, kFiguresDocument, kFiguresSamples);
}

TEST(JsonGolden, Ablation) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7;
  expect_sweep_golden("ablation", opts, {0x73c98e9f23d038fcULL, 11015},
                      {0x7ed40f94b88a09e8ULL, 2970});
}

TEST(JsonGolden, Stretch) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7;
  expect_sweep_golden("stretch", opts, {0x782a014a5f4680fcULL, 28407},
                      {0x2279f5218dead961ULL, 7804});
}

TEST(JsonGolden, HoleField) {
  ScenarioOptions opts;
  opts.networks = 1; opts.pairs = 2; opts.seed = 7;
  expect_sweep_golden("hole-field", opts, {0x88249e08731f3a37ULL, 8684},
                      {0x8eac147a5b0c398cULL, 2370});
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

  JsonValue timings = JsonValue::object();
  timings.set("construction_seconds", JsonValue::of(1.25))
      .set("pair_draw_seconds", JsonValue::of(0.5))
      .set("oracle_seconds", JsonValue::of(2.0 / 3.0))
      .set("routing_seconds", JsonValue::of(0.125))
      .set("pairs_requested", JsonValue::of(std::uint64_t{20}))
      .set("pairs_routed", JsonValue::of(std::uint64_t{19}));
  report.param("timings", std::move(timings));

  SweepSection section;
  section.model = DeployModel::kForbiddenAreas;
  section.networks_per_point = 2;
  section.pairs_per_network = 3;
  section.base_seed = 2009;
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
      R"GOLD("pairs_per_network":3,"base_seed":2009,)GOLD"
      R"GOLD("points":[{"nodes":400,)GOLD"
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
