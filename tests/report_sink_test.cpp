/// \file report_sink_test.cpp
/// The ReportSink backends: JSON documents that the bundled reader parses
/// (for every built-in scenario), CSV table export paths and RFC-4180
/// quoting, SVG curve rendering, format-list parsing, and the composable
/// sink selection in ScenarioSuite::run.

#include "report/sink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/scenario.h"
#include "report/serialize.h"

namespace spr {
namespace {

ScenarioReport build_report(const char* name, const ScenarioOptions& opts) {
  const Scenario* scenario = ScenarioSuite::builtin().find(name);
  EXPECT_NE(scenario, nullptr) << name;
  ScenarioReport report;
  report.scenario = name;
  EXPECT_EQ(scenario->build(opts, report), 0) << name;
  return report;
}

ScenarioOptions tiny_options() {
  ScenarioOptions opts;
  opts.networks = 1;
  opts.pairs = 1;
  opts.seed = 13;
  opts.threads = 2;
  return opts;
}

TEST(JsonSinkTest, EveryBuiltinScenarioReportParses) {
  for (const Scenario& scenario : ScenarioSuite::builtin().scenarios()) {
    const char* name = scenario.name.c_str();
    ScenarioReport report = build_report(name, tiny_options());
    std::string document = JsonSink::render(report);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(document, parsed, &error))
        << name << ": " << error;
    EXPECT_EQ(parsed.get("scenario").as_string(), name);
    // Parse -> dump -> parse is stable (what the merge path relies on).
    JsonValue reparsed;
    ASSERT_TRUE(JsonValue::parse(parsed.dump(), reparsed, &error)) << name;
    EXPECT_EQ(parsed.dump(), reparsed.dump()) << name;
  }
}

TEST(JsonSinkTest, FigureReportKeepsTheLegacyShape) {
  ScenarioReport report = build_report("figures", tiny_options());
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::parse(JsonSink::render(report), parsed));
  const JsonValue& models = parsed.get("models");
  ASSERT_TRUE(models.is_array());
  ASSERT_EQ(models.size(), 2u);  // IA + FA
  EXPECT_EQ(models.at(0).get("model").as_string(), "IA");
  EXPECT_EQ(models.at(1).get("model").as_string(), "FA");
  const JsonValue& points = models.at(0).get("points");
  ASSERT_TRUE(points.is_array());
  EXPECT_EQ(points.size(), 9u);  // the paper's 400..800 grid
  const JsonValue& gf = points.at(0).get("schemes").get("GF");
  EXPECT_TRUE(gf.get("delivery_ratio").is_number());
  EXPECT_TRUE(gf.get("hops").get("mean").is_number());
}

TEST(JsonSinkTest, WritesFileWithTrailingNewline) {
  ScenarioReport report;
  report.scenario = "unit";
  report.param("x", JsonValue::of(1));
  std::string path = testing::TempDir() + "/spr_sink_test.json";
  ASSERT_TRUE(JsonSink(path).emit(report));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{\"scenario\":\"unit\",\"x\":1}\n");
  std::remove(path.c_str());
}

TEST(CsvSinkTest, SingleTableUsesTheConfiguredPath) {
  EXPECT_EQ(CsvSink::table_path("out.csv", 0, 1), "out.csv");
  EXPECT_EQ(CsvSink::table_path("out.csv", 0, 3), "out-1.csv");
  EXPECT_EQ(CsvSink::table_path("out.csv", 2, 3), "out-3.csv");
  EXPECT_EQ(CsvSink::table_path("noext", 1, 2), "noext-2");
  EXPECT_EQ(CsvSink::table_path("dir.d/noext", 1, 2), "dir.d/noext-2");
}

TEST(CsvSinkTest, WritesEveryTable) {
  ScenarioReport report;
  report.scenario = "unit";
  Table a({"n", "v"});
  a.add_row({"1", "x,y"});
  report.add_table(std::move(a), "first");
  Table b({"m"});
  b.add_row({"he said \"hi\""});
  report.add_table(std::move(b), "second");

  std::string base = testing::TempDir() + "/spr_sink_test.csv";
  ASSERT_TRUE(CsvSink(base).emit(report));
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  std::string first = CsvSink::table_path(base, 0, 2);
  std::string second = CsvSink::table_path(base, 1, 2);
  EXPECT_EQ(slurp(first), "n,v\n1,\"x,y\"\n");
  EXPECT_EQ(slurp(second), "m\n\"he said \"\"hi\"\"\"\n");
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(SvgSinkTest, RendersOnePanelPerCurve) {
  ScenarioReport report = build_report("figures", tiny_options());
  ASSERT_EQ(report.curves.size(), 6u);  // Figs. 5-7 x (IA + FA) panels
  std::string svg = SvgSink::render(report);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  EXPECT_NE(svg.find("GF"), std::string::npos);
  EXPECT_NE(svg.find("SLGF2"), std::string::npos);
  EXPECT_NE(svg.find("Fig. 6"), std::string::npos);
}

TEST(SvgSinkTest, CurvelessReportStillProducesADocument) {
  ScenarioReport report;
  report.scenario = "unit";
  std::string svg = SvgSink::render(report);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("no sweep curves"), std::string::npos);
}

TEST(ConsoleSinkTest, PrintsBlocksInOrder) {
  ScenarioReport report;
  report.text("before\n");
  Table t({"a"});
  t.add_row({"1"});
  report.add_table(std::move(t));
  report.note("after");
  testing::internal::CaptureStdout();
  ASSERT_TRUE(ConsoleSink().emit(report));
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, "before\na\n-\n1\nafter\n");
}

TEST(ReportFormats, ParseAndValidate) {
  std::vector<ReportFormat> formats;
  EXPECT_TRUE(parse_report_formats("console,json,csv,svg", formats));
  EXPECT_EQ(formats.size(), 4u);
  EXPECT_TRUE(parse_report_formats("", formats));
  EXPECT_TRUE(formats.empty());
  EXPECT_TRUE(parse_report_formats(" json , json ", formats));
  EXPECT_EQ(formats.size(), 1u);
  EXPECT_EQ(formats[0], ReportFormat::kJson);
  std::string error;
  EXPECT_FALSE(parse_report_formats("json,xml", formats, &error));
  EXPECT_NE(error.find("xml"), std::string::npos);
}

/// Unknown format tokens are rejected with the same near-match suggestion
/// machinery unknown scenario names get — a typo points at the fix.
TEST(ReportFormats, UnknownTokenSuggestsNearMatch) {
  std::vector<ReportFormat> formats;
  std::string error;
  EXPECT_FALSE(parse_report_formats("jsno", formats, &error));
  EXPECT_NE(error.find("did you mean 'json'"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(parse_report_formats("console,svgg", formats, &error));
  EXPECT_NE(error.find("did you mean 'svg'"), std::string::npos) << error;
  error.clear();
  // A prefix of a valid name also points at it.
  EXPECT_FALSE(parse_report_formats("cons", formats, &error));
  EXPECT_NE(error.find("did you mean 'console'"), std::string::npos) << error;
  // Nothing close: the error still lists the valid names, no suggestion.
  error.clear();
  EXPECT_FALSE(parse_report_formats("spreadsheet", formats, &error));
  EXPECT_EQ(error.find("did you mean"), std::string::npos) << error;
  EXPECT_NE(error.find("expected console, json, csv or svg"),
            std::string::npos);
}

TEST(ScenarioRun, FormatSelectionEmitsTheRequestedSinks) {
  std::string base = testing::TempDir() + "/spr_run_formats";
  ScenarioOptions opts = tiny_options();
  opts.networks = 3;  // mobile-stream epochs
  opts.seed = 9;
  opts.formats = "json,csv,svg";
  opts.json_path = base + ".json";
  opts.csv_path = base + ".csv";
  opts.svg_path = base + ".svg";
  // No console in the list: nothing on stdout.
  testing::internal::CaptureStdout();
  ASSERT_EQ(ScenarioSuite::builtin().run("mobile-stream", opts), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  for (const char* ext : {".json", ".csv", ".svg"}) {
    std::ifstream in(base + ext);
    EXPECT_TRUE(in.good()) << ext;
  }
  JsonValue parsed;
  ASSERT_TRUE(JsonValue::parse_file(base + ".json", parsed));
  EXPECT_EQ(parsed.get("scenario").as_string(), "mobile-stream");
  EXPECT_TRUE(parsed.get("notes").is_array());
  for (const char* ext : {".json", ".csv", ".svg"}) {
    std::remove((base + ext).c_str());
  }
}

TEST(ScenarioRun, AbortedReportRoutesMessageToStderrWithoutConsoleSink) {
  ScenarioSuite suite;
  suite.add({"aborting", "always aborts",
             [](const ScenarioOptions&, ScenarioReport& r) {
               r.textf("something went wrong\n");
               r.aborted = true;
               return 1;
             }});
  ScenarioOptions opts;
  opts.formats = "json";
  opts.json_path = testing::TempDir() + "/spr_aborted_test.json";
  std::remove(opts.json_path.c_str());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(suite.run("aborting", opts), 1);
  std::string out = testing::internal::GetCapturedStdout();
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out, "");  // console sink was not selected
  EXPECT_NE(err.find("something went wrong"), std::string::npos);
  // Structured sinks skip the half-built report entirely.
  std::ifstream in(opts.json_path);
  EXPECT_FALSE(in.good());
}

TEST(ScenarioRun, UnwritableSinkFailsWithExitCode1) {
  ScenarioOptions opts = tiny_options();
  opts.networks = 2;
  opts.json_path = "/nonexistent-dir/report.json";
  testing::internal::CaptureStdout();
  int code = ScenarioSuite::builtin().run("mobile-stream", opts);
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 1);
}

}  // namespace
}  // namespace spr
