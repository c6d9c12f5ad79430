/// \file report_serialize_test.cpp
/// Exact JSON round-trip of the sweep result model (Summary,
/// RouteAggregate, SweepPoint, CellResult, shard files) and
/// the acceptance check behind distributed sweeps: merging N single-cell
/// shard JSONs reproduces the in-process run_sweep aggregates
/// bit-identically.

#include "report/serialize.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "support/sweep_compare.h"
#include "util/check.h"

namespace spr {
namespace {

/// Serializes with to_json, parses the text, deserializes with from_json.
template <typename T>
T round_trip(const T& value) {
  const std::string text = to_json(value).dump();
  JsonValue parsed;
  std::string error;
  EXPECT_TRUE(JsonValue::parse(text, parsed, &error)) << error;
  T out;
  EXPECT_TRUE(from_json(parsed, out)) << text;
  return out;
}

/// Bitwise equality of every derived moment — the same definition the
/// sweep determinism checks use.
void expect_summaries_identical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.values(), b.values());
}

Summary sample_summary() {
  Summary s;
  for (double v : {3.0, 1.0 / 3.0, 7.25, -2.5, 1e-12, 123456.789}) s.add(v);
  return s;
}

TEST(Serialize, SummaryRoundTripIsBitExact) {
  Summary original = sample_summary();
  Summary copy = round_trip(original);
  expect_summaries_identical(original, copy);
  // The reconstructed accumulator merges exactly like the original.
  Summary merged_a, merged_b;
  merged_a.merge(original);
  merged_a.merge(copy);
  merged_b.merge(copy);
  merged_b.merge(original);
  expect_summaries_identical(merged_a, merged_b);
}

TEST(Serialize, EmptySummaryRoundTrips) {
  Summary empty;
  Summary copy = round_trip(empty);
  EXPECT_TRUE(copy.empty());
}

TEST(Serialize, SummaryRejectsMalformed) {
  Summary out;
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(R"({"values":[1,"two"]})", v));
  EXPECT_FALSE(from_json(v, out));
  ASSERT_TRUE(JsonValue::parse(R"({"values":7})", v));
  EXPECT_FALSE(from_json(v, out));
  ASSERT_TRUE(JsonValue::parse(R"({})", v));
  EXPECT_FALSE(from_json(v, out));
  ASSERT_TRUE(JsonValue::parse(R"({"values":[null]})", v));
  EXPECT_FALSE(from_json(v, out));
}

RouteAggregate sample_aggregate(std::uint64_t seed) {
  RouteAggregate agg;
  agg.requested = 10 + seed % 3;
  agg.attempted = 9;
  agg.delivered = 8;
  for (int i = 0; i < 6; ++i) {
    double x = static_cast<double>((seed + 1) * (i + 1));
    agg.hops.add(x);
    agg.length.add(x * 17.5);
    agg.stretch_hops.add(1.0 + x / 100.0);
    agg.stretch_length.add(1.0 + x / 300.0);
    agg.perimeter_hops.add(static_cast<double>(i % 2));
    agg.backup_hops.add(static_cast<double>(i % 3));
    agg.local_minima.add(static_cast<double>(i));
  }
  return agg;
}

void expect_aggregates_identical(const RouteAggregate& a,
                                 const RouteAggregate& b) {
  EXPECT_EQ(a.requested, b.requested);
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.delivered, b.delivered);
  expect_summaries_identical(a.hops, b.hops);
  expect_summaries_identical(a.length, b.length);
  expect_summaries_identical(a.stretch_hops, b.stretch_hops);
  expect_summaries_identical(a.stretch_length, b.stretch_length);
  expect_summaries_identical(a.perimeter_hops, b.perimeter_hops);
  expect_summaries_identical(a.backup_hops, b.backup_hops);
  expect_summaries_identical(a.local_minima, b.local_minima);
}

TEST(Serialize, RouteAggregateRoundTrip) {
  RouteAggregate original = sample_aggregate(5);
  expect_aggregates_identical(original, round_trip(original));
}

TEST(Serialize, CellResultAndSweepPointRoundTrip) {
  CellResult cell;
  cell.emplace("GF", sample_aggregate(1));
  cell.emplace("SLGF2", sample_aggregate(2));
  CellResult cell_copy = round_trip(cell);
  ASSERT_EQ(cell_copy.size(), 2u);
  expect_aggregates_identical(cell.at("GF"), cell_copy.at("GF"));
  expect_aggregates_identical(cell.at("SLGF2"), cell_copy.at("SLGF2"));

  SweepPoint point;
  point.node_count = 600;
  point.by_scheme = cell;
  SweepPoint point_copy = round_trip(point);
  EXPECT_EQ(point_copy.node_count, 600);
  expect_aggregates_identical(point.by_scheme.at("GF"),
                              point_copy.by_scheme.at("GF"));
}

SweepConfig small_sweep_config() {
  SweepConfig config;
  config.node_counts = {400, 500};
  config.networks_per_point = 3;
  config.pairs_per_network = 2;
  config.base_seed = 77;
  config.threads = 1;
  config.schemes = SweepConfig::paper_schemes();
  return config;
}

TEST(Shards, SingleCellShardsMergeBitIdenticallyToRunSweep) {
  SweepConfig config = small_sweep_config();
  auto in_process = run_sweep(config);

  // One shard per cell (shard i of N where N = total cells), each
  // round-tripped through its JSON text — the full scp-and-merge workflow.
  int total_cells = static_cast<int>(config.node_counts.size()) *
                    config.networks_per_point;
  std::vector<SweepSlice> shards;
  for (int i = 0; i < total_cells; ++i) {
    auto cells = run_sweep_slice(config, i, total_cells);
    ASSERT_EQ(cells.size(), 1u) << i;
    SweepSlice shard = make_slice(config, i, total_cells, std::move(cells));
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(to_json(shard).dump(), parsed, &error))
        << error;
    SweepSlice decoded;
    ASSERT_TRUE(from_json(parsed, decoded));
    shards.push_back(std::move(decoded));
  }

  std::vector<SweepPoint> merged;
  std::string error;
  ASSERT_TRUE(merge_slices(std::move(shards), merged, &error)) << error;
  EXPECT_TRUE(test::sweep_results_identical(in_process, merged));
}

TEST(Shards, UnevenShardingAlsoMergesIdentically) {
  SweepConfig config = small_sweep_config();
  auto in_process = run_sweep(config);
  std::vector<SweepSlice> shards;
  for (int i = 0; i < 4; ++i) {  // 6 cells over 4 shards: sizes 2,2,1,1
    shards.push_back(
        make_slice(config, i, 4, run_sweep_slice(config, i, 4)));
  }
  std::vector<SweepPoint> merged;
  ASSERT_TRUE(merge_slices(std::move(shards), merged, nullptr));
  EXPECT_TRUE(test::sweep_results_identical(in_process, merged));
}

TEST(Shards, MergeRejectsBadInput) {
  SweepConfig config = small_sweep_config();
  auto make = [&](int i, int n) {
    return make_slice(config, i, n, run_sweep_slice(config, i, n));
  };
  std::string error;
  std::vector<SweepPoint> points;

  // Empty input.
  EXPECT_FALSE(merge_slices({}, points, &error));

  // Missing cells.
  EXPECT_FALSE(merge_slices({make(0, 2)}, points, &error));
  EXPECT_NE(error.find("incomplete"), std::string::npos);

  // Duplicate cells.
  EXPECT_FALSE(merge_slices({make(0, 2), make(0, 2), make(1, 2)}, points,
                            &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  // Config mismatch.
  SweepConfig other = config;
  other.base_seed = 78;
  std::vector<SweepSlice> mixed;
  mixed.push_back(make(0, 2));
  mixed.push_back(make_slice(other, 1, 2, run_sweep_slice(other, 1, 2)));
  EXPECT_FALSE(merge_slices(std::move(mixed), points, &error));
  EXPECT_NE(error.find("different sweep"), std::string::npos);

  // A cell stripped of one scheme's results (truncated/hand-edited shard)
  // must be rejected, not silently merged into wrong aggregates.
  std::vector<SweepSlice> stripped{make(0, 2), make(1, 2)};
  ASSERT_FALSE(stripped[0].cells.empty());
  stripped[0].cells[0].result.erase("GF");
  EXPECT_FALSE(merge_slices(std::move(stripped), points, &error));
  EXPECT_NE(error.find("scheme results"), std::string::npos);

  // Same size but a swapped-in foreign label is rejected too.
  std::vector<SweepSlice> swapped{make(0, 2), make(1, 2)};
  ASSERT_FALSE(swapped[0].cells.empty());
  swapped[0].cells[0].result.erase("GF");
  swapped[0].cells[0].result.emplace("BOGUS", RouteAggregate{});
  EXPECT_FALSE(merge_slices(std::move(swapped), points, &error));
  EXPECT_NE(error.find("missing scheme"), std::string::npos);
}

TEST(Serialize, IntegerFieldsRejectFractionalNumbers) {
  // A corrupted shard with "net_index": 1.7 must not silently truncate
  // into a different cell coordinate.
  SweepConfig config = small_sweep_config();
  const std::string text =
      to_json(make_slice(config, 0, 1, run_sweep_slice(config, 0, 1))).dump();
  SweepSlice shard;
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(text, v));
  ASSERT_TRUE(from_json(v, shard));  // the intact file loads
  const std::string intact = "\"net_index\":1,";
  std::size_t at = text.find(intact);
  ASSERT_NE(at, std::string::npos);
  std::string corrupted = text;
  corrupted.replace(at, intact.size(), "\"net_index\":1.7,");
  ASSERT_TRUE(JsonValue::parse(corrupted, v));
  EXPECT_FALSE(from_json(v, shard));

  SweepPoint point;
  ASSERT_TRUE(JsonValue::parse(R"({"nodes":400.5,"schemes":{}})", v));
  EXPECT_FALSE(from_json(v, point));
}

TEST(Shards, ShardFileRejectsForeignJson) {
  SweepSlice shard;
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(R"({"scenario":"fig6-avg-hops"})", v));
  EXPECT_FALSE(from_json(v, shard));
  ASSERT_TRUE(JsonValue::parse(R"({"spr_shard":99})", v));
  EXPECT_FALSE(from_json(v, shard));
  ASSERT_TRUE(JsonValue::parse("[1,2,3]", v));
  EXPECT_FALSE(from_json(v, shard));
}

TEST(Shards, RunSweepSlicePartitionsTheCells) {
  SweepConfig config = small_sweep_config();
  std::set<std::pair<int, int>> seen;
  std::size_t total = 0;
  for (int i = 0; i < 3; ++i) {
    for (const auto& cell : run_sweep_slice(config, i, 3)) {
      EXPECT_TRUE(seen.emplace(cell.node_count, cell.net_index).second);
      ++total;
    }
  }
  EXPECT_EQ(total, config.node_counts.size() *
                       static_cast<std::size_t>(config.networks_per_point));
  // Degenerate shard specs yield nothing rather than UB.
  EXPECT_TRUE(run_sweep_slice(config, 3, 3).empty());
  EXPECT_TRUE(run_sweep_slice(config, -1, 3).empty());
  EXPECT_TRUE(run_sweep_slice(config, 0, 0).empty());
  // A negative count in the config is a caller bug, not an empty slice.
  ScopedCheckHandler guard(&throwing_check_handler);
  config.pairs_per_network = -1;
  EXPECT_THROW(run_sweep_slice(config, 0, 3), CheckError);
}

}  // namespace
}  // namespace spr
