// Tests for the bench-regression layer: BenchDoc round-trips the JSON that
// obs::BenchReport emits, and compare() classifies scalar/table deltas under
// the exact-vs-wall-clock noise policy the prtr-report CLI enforces.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/bench_io.hpp"
#include "prof/regression.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace prtr;

std::string tempPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// Emits one bench document through the real BenchReport writer.
std::string writeBenchJson(const std::string& file, double speedup,
                           double wallMs, const std::string& tableCell) {
  const std::string path = tempPath(file);
  const char* argv[] = {"bench", "--json", path.c_str(), "--threads", "2"};
  obs::BenchReport report{"demo", bench::Options::parse("demo", 5, argv)};
  report.scalar("peak_sim_speedup", speedup);
  report.scalar("time_total_ms", wallMs);
  report.note("basis", "measured");
  util::Table table{{"X_task", "S"}};
  table.row().cell("0.5").cell(tableCell);
  report.table("grid", table);
  report.finish();
  return path;
}

TEST(BenchDoc, RoundTripsTheBenchReportWriter) {
  const std::string path = writeBenchJson("roundtrip.json", 12.5, 100.0, "7.1");
  const prof::BenchDoc doc = prof::BenchDoc::parseFile(path);
  EXPECT_EQ(doc.bench, "demo");
  // "threads" always leads the scalar list; registration order follows.
  ASSERT_GE(doc.scalars.size(), 3u);
  EXPECT_EQ(doc.scalars[0].first, "threads");
  EXPECT_DOUBLE_EQ(doc.scalars[0].second, 2.0);
  ASSERT_NE(doc.findScalar("peak_sim_speedup"), nullptr);
  EXPECT_DOUBLE_EQ(*doc.findScalar("peak_sim_speedup"), 12.5);
  ASSERT_NE(doc.findTable("grid"), nullptr);
  EXPECT_EQ(doc.findTable("grid")->header,
            (std::vector<std::string>{"X_task", "S"}));
  EXPECT_EQ(doc.findTable("grid")->rows.at(0).at(1), "7.1");
  ASSERT_EQ(doc.notes.size(), 1u);
  EXPECT_EQ(doc.notes[0].second, "measured");
}

TEST(BenchDoc, ParseRejectsNonBenchDocuments) {
  EXPECT_THROW((void)prof::BenchDoc::parse(util::json::Value::parse(
                   "{\"scalars\":{}}")),
               util::DomainError);
  EXPECT_THROW((void)prof::BenchDoc::parseFile(tempPath("missing.json")),
               util::Error);
}

TEST(RegressionCompare, SelfComparisonPasses) {
  const std::string path = writeBenchJson("self.json", 12.5, 100.0, "7.1");
  const prof::BenchDoc doc = prof::BenchDoc::parseFile(path);
  const prof::CompareResult result = prof::compare(doc, doc);
  EXPECT_TRUE(result.pass);
  for (const prof::ScalarDelta& d : result.scalars) {
    EXPECT_TRUE(d.kind == prof::DeltaKind::kMatch ||
                d.kind == prof::DeltaKind::kInfo)
        << d.name;
  }
}

TEST(RegressionCompare, SimulatedScalarDriftIsARegression) {
  const prof::BenchDoc baseline = prof::BenchDoc::parseFile(
      writeBenchJson("base.json", 12.5, 100.0, "7.1"));
  const prof::BenchDoc current = prof::BenchDoc::parseFile(
      writeBenchJson("cur.json", 11.9, 100.0, "7.1"));
  const prof::CompareResult result = prof::compare(baseline, current);
  EXPECT_FALSE(result.pass);
  bool found = false;
  for (const prof::ScalarDelta& d : result.scalars) {
    if (d.name != "peak_sim_speedup") continue;
    found = true;
    EXPECT_EQ(d.kind, prof::DeltaKind::kRegression);
    EXPECT_LT(d.relDelta, 0.0);
  }
  EXPECT_TRUE(found);
}

TEST(RegressionCompare, WallClockDriftIsInformationalUnlessGated) {
  const prof::BenchDoc baseline = prof::BenchDoc::parseFile(
      writeBenchJson("wbase.json", 12.5, 100.0, "7.1"));
  const prof::BenchDoc current = prof::BenchDoc::parseFile(
      writeBenchJson("wcur.json", 12.5, 170.0, "7.1"));
  const prof::CompareResult loose = prof::compare(baseline, current);
  EXPECT_TRUE(loose.pass);

  prof::ComparePolicy gated;
  gated.gateWallClock = true;
  gated.wallBand = 0.25;
  const prof::CompareResult strict = prof::compare(baseline, current, gated);
  EXPECT_FALSE(strict.pass);  // +70% is outside the 25% band

  gated.wallBand = 2.0;
  EXPECT_TRUE(prof::compare(baseline, current, gated).pass);
}

TEST(RegressionCompare, HostProbesAreNotSimulatedScalars) {
  EXPECT_TRUE(prof::ComparePolicy::isWallClockScalar("host_concurrency"));
  EXPECT_FALSE(prof::ComparePolicy::isWallClockScalar("cache_hit_rate"));
}

TEST(RegressionCompare, MissingScalarFailsAndNewScalarIsInformational) {
  prof::BenchDoc baseline;
  baseline.bench = "demo";
  baseline.scalars = {{"a", 1.0}, {"b", 2.0}};
  prof::BenchDoc current;
  current.bench = "demo";
  current.scalars = {{"a", 1.0}, {"c", 3.0}};
  const prof::CompareResult result = prof::compare(baseline, current);
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.scalars.size(), 3u);
  EXPECT_EQ(result.scalars[0].kind, prof::DeltaKind::kMatch);
  EXPECT_EQ(result.scalars[1].kind, prof::DeltaKind::kMissing);
  EXPECT_EQ(result.scalars[2].name, "c");
  EXPECT_EQ(result.scalars[2].kind, prof::DeltaKind::kNew);
}

TEST(RegressionCompare, TableCellDriftReportsTheFirstDifference) {
  const prof::BenchDoc baseline = prof::BenchDoc::parseFile(
      writeBenchJson("tbase.json", 12.5, 100.0, "7.1"));
  const prof::BenchDoc current = prof::BenchDoc::parseFile(
      writeBenchJson("tcur.json", 12.5, 100.0, "7.4"));
  const prof::CompareResult result = prof::compare(baseline, current);
  EXPECT_FALSE(result.pass);
  ASSERT_EQ(result.tables.size(), 1u);
  EXPECT_EQ(result.tables[0].kind, prof::DeltaKind::kRegression);
  EXPECT_NE(result.tables[0].detail.find("\"7.1\" vs \"7.4\""),
            std::string::npos)
      << result.tables[0].detail;
}

TEST(RegressionCompare, RenderersCarryTheVerdictAndDeltas) {
  const prof::BenchDoc baseline = prof::BenchDoc::parseFile(
      writeBenchJson("rbase.json", 12.5, 100.0, "7.1"));
  const prof::BenchDoc current = prof::BenchDoc::parseFile(
      writeBenchJson("rcur.json", 11.9, 100.0, "7.1"));
  const prof::CompareResult result = prof::compare(baseline, current);

  const std::string text = result.renderText();
  EXPECT_NE(text.find("bench demo: FAIL"), std::string::npos);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("peak_sim_speedup"), std::string::npos);

  const std::string markdown = result.renderMarkdown();
  EXPECT_NE(markdown.find("### demo — FAIL"), std::string::npos);
  EXPECT_NE(markdown.find("| `peak_sim_speedup` |"), std::string::npos);

  std::ostringstream os;
  util::json::Writer w{os};
  result.writeJson(w);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"pass\":false"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"REGRESSION\""), std::string::npos);
  // The verdict document itself parses back.
  EXPECT_NO_THROW((void)util::json::Value::parse(json));
}

}  // namespace
