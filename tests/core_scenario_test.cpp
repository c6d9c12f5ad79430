#include "core/scenario.h"

#include <gtest/gtest.h>

#include <limits>

#include "support/sweep_compare.h"

namespace spr {
namespace {

TEST(JsonValue, DumpNestsContainersAndEscapes) {
  JsonValue list = JsonValue::array();
  list.push(JsonValue::of(1)).push(JsonValue::of(2));
  list.push(JsonValue::object().set("x", JsonValue::of(7)));
  JsonValue doc = JsonValue::object();
  doc.set("name", JsonValue::of("line\nbreak \"quoted\""));
  doc.set("count", JsonValue::of(3));
  doc.set("ratio", JsonValue::of(0.5));
  doc.set("ok", JsonValue::of(true));
  doc.set("missing", JsonValue());
  doc.set("list", std::move(list));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"line\\nbreak \\\"quoted\\\"\",\"count\":3,"
            "\"ratio\":0.5,\"ok\":true,\"missing\":null,"
            "\"list\":[1,2,{\"x\":7}]}");
}

TEST(JsonValue, DumpWritesNonFiniteNumbersAsNull) {
  JsonValue list = JsonValue::array();
  list.push(JsonValue::of(std::numeric_limits<double>::infinity()));
  list.push(JsonValue::of(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(list.dump(), "[null,null]");
}

TEST(ScenarioSuite, BuiltinRegistersTheNamedScenarios) {
  const auto& suite = ScenarioSuite::builtin();
  for (const char* name :
       {"figures", "ablation", "delivery", "stretch", "construction-cost",
        "hole-field", "failure-dynamics", "mobile-stream",
        "streaming-delivery", "mobility-rate"}) {
    EXPECT_NE(suite.find(name), nullptr) << name;
  }
  EXPECT_EQ(suite.find("no-such-scenario"), nullptr);
}

TEST(ScenarioSuite, UnknownScenarioReturns2) {
  EXPECT_EQ(ScenarioSuite::builtin().run("no-such-scenario"), 2);
}

TEST(ScenarioSuite, SweepResultsIdenticalDetectsDivergence) {
  SweepConfig config;
  config.node_counts = {400};
  config.networks_per_point = 1;
  config.pairs_per_network = 2;
  config.schemes = SweepConfig::paper_schemes();
  auto a = run_sweep(config);
  auto b = run_sweep(config);
  EXPECT_TRUE(test::sweep_results_identical(a, b));
  b[0].by_scheme.at("GF").attempted += 1;
  EXPECT_FALSE(test::sweep_results_identical(a, b));
}

TEST(ScenarioSuite, SuggestsNearMatchesForUnknownNames) {
  const auto& suite = ScenarioSuite::builtin();
  // Prefix match.
  auto by_prefix = suite.suggestions("fig");
  ASSERT_FALSE(by_prefix.empty());
  EXPECT_EQ(by_prefix.front(), "figures");
  // Small typo (edit distance).
  auto by_typo = suite.suggestions("mobile-strem");
  ASSERT_FALSE(by_typo.empty());
  EXPECT_EQ(by_typo.front(), "mobile-stream");
  auto by_typo2 = suite.suggestions("hole-fild");
  ASSERT_FALSE(by_typo2.empty());
  EXPECT_EQ(by_typo2.front(), "hole-field");
  // Nothing close.
  EXPECT_TRUE(suite.suggestions("zzzzzzzz").empty());
}

}  // namespace
}  // namespace spr
