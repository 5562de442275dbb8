// Tests for the verify timeline invariant analyzer (TL0xx rules), the
// Chrome-trace loader it feeds on post-hoc runs, the trace diff (DT002),
// and the inline ScenarioOptions::verify gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "obs/trace_export.hpp"
#include "runtime/scenario.hpp"
#include "sim/trace.hpp"
#include "tasks/workload.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "verify/timeline_rules.hpp"
#include "verify/trace_load.hpp"

namespace prtr {
namespace {

using analyze::DiagnosticSink;
using verify::LaneKind;

util::Time us(long long v) { return util::Time::microseconds(v); }

sim::NamedSpan span(std::string lane, std::string label, long long startUs,
                    long long endUs) {
  return sim::NamedSpan{std::move(lane), std::move(label), '#', us(startUs),
                        us(endUs)};
}

DiagnosticSink check(const std::vector<sim::NamedSpan>& spans) {
  DiagnosticSink sink;
  verify::checkSpans("test", spans, sink);
  return sink;
}

bool has(const DiagnosticSink& sink, const std::string& code) {
  const auto codes = sink.codes();
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

TEST(LaneClassification, FollowsExecutorConventions) {
  EXPECT_EQ(verify::classifyLane("config"), LaneKind::kConfigPort);
  EXPECT_EQ(verify::classifyLane("PRR0"), LaneKind::kComputeRegion);
  EXPECT_EQ(verify::classifyLane("PRR12"), LaneKind::kComputeRegion);
  EXPECT_EQ(verify::classifyLane("FPGA"), LaneKind::kComputeRegion);
  EXPECT_EQ(verify::classifyLane("HT-in"), LaneKind::kLink);
  EXPECT_EQ(verify::classifyLane("HT-out"), LaneKind::kLink);
  EXPECT_EQ(verify::classifyLane("recovery"), LaneKind::kRecovery);
  EXPECT_EQ(verify::classifyLane("CPU"), LaneKind::kSerial);
}

TEST(TimelineRules, CleanTimelineHasNoFindings) {
  const DiagnosticSink sink = check({
      span("CPU", "call(0)", 0, 10),
      span("config", "sobel", 0, 4),
      span("PRR0", "compute", 4, 9),
      span("CPU", "call(1)", 10, 20),
      span("config", "median", 10, 14),  // touches nothing: [10,14) after [0,4)
      span("PRR0", "compute", 14, 19),
  });
  EXPECT_TRUE(sink.codes().empty()) << sink.toText();
}

TEST(TimelineRules, TouchingEndpointsAreNotAnOverlap) {
  const DiagnosticSink sink = check({
      span("config", "a", 0, 5),
      span("config", "b", 5, 10),  // half-open: back-to-back loads are legal
  });
  EXPECT_TRUE(sink.codes().empty()) << sink.toText();
}

TEST(TimelineRules, SpanEndingBeforeStartIsTl001) {
  const DiagnosticSink sink = check({span("CPU", "bad", 10, 5)});
  EXPECT_TRUE(has(sink, "TL001")) << sink.toText();
  EXPECT_TRUE(sink.hasErrors());
}

TEST(TimelineRules, OutOfOrderLaneRecordingIsTl002) {
  const DiagnosticSink sink = check({
      span("CPU", "late", 10, 12),
      span("CPU", "early", 0, 3),
  });
  EXPECT_TRUE(has(sink, "TL002")) << sink.toText();
  EXPECT_FALSE(has(sink, "TL003"));  // [0,3) and [10,12) do not overlap
}

TEST(TimelineRules, SerialLaneOverlapIsTl003) {
  const DiagnosticSink sink = check({
      span("CPU", "a", 0, 10),
      span("CPU", "b", 5, 15),
  });
  EXPECT_TRUE(has(sink, "TL003")) << sink.toText();
}

TEST(TimelineRules, PrrDoubleResidencyIsTl004) {
  const DiagnosticSink sink = check({
      span("PRR0", "sobel", 0, 10),
      span("PRR0", "median", 5, 15),
      span("PRR1", "edge", 5, 15),  // different region: legal
  });
  EXPECT_TRUE(has(sink, "TL004")) << sink.toText();
  EXPECT_EQ(sink.codes().size(), 1u);
}

TEST(TimelineRules, IcapOverlapIsTl005) {
  const DiagnosticSink sink = check({
      span("config", "sobel", 0, 10),
      span("config", "median", 5, 15),
  });
  EXPECT_TRUE(has(sink, "TL005")) << sink.toText();
}

TEST(TimelineRules, SimplexLinkOverlapIsTl006) {
  const DiagnosticSink sink = check({
      span("HT-in", "in(a)", 0, 10),
      span("HT-in", "in(b)", 5, 15),
      span("HT-out", "out(a)", 5, 15),  // the other direction is independent
  });
  EXPECT_TRUE(has(sink, "TL006")) << sink.toText();
  EXPECT_EQ(sink.codes().size(), 1u);
}

TEST(TimelineRules, UnpairedRecoveryIsTl007) {
  const DiagnosticSink paired = check({
      span("config", "retry(sobel)", 5, 8),
      span("recovery", "episode", 4, 9),
  });
  EXPECT_TRUE(paired.codes().empty()) << paired.toText();

  const DiagnosticSink unpaired = check({
      span("config", "load", 0, 3),
      span("recovery", "episode", 10, 20),
  });
  EXPECT_TRUE(has(unpaired, "TL007")) << unpaired.toText();
  EXPECT_FALSE(unpaired.hasErrors());  // TL007 is a warning
}

TEST(TimelineRules, RecoveryRuleNeedsAConfigLane) {
  // Without the config lane captured, pairing is not checkable at all.
  const DiagnosticSink sink = check({span("recovery", "episode", 10, 20)});
  EXPECT_TRUE(sink.codes().empty()) << sink.toText();
}

TEST(TimelineRules, TimelineOverloadMatchesSpanOverload) {
  sim::Timeline timeline;
  const sim::LaneId config = timeline.lane("config");
  timeline.record(config, timeline.label("sobel"), '#', us(0), us(10));
  timeline.record(config, timeline.label("median"), '#', us(5), us(15));
  DiagnosticSink sink;
  verify::checkTimeline("live", timeline, sink);
  EXPECT_TRUE(has(sink, "TL005"));
}

// ---------------------------------------------------------------------------
// Chrome-trace loading
// ---------------------------------------------------------------------------

TEST(TraceLoad, RoundTripsAnExportedTimeline) {
  sim::Timeline timeline;
  timeline.record(timeline.lane("CPU"), timeline.label("call(0)"), '#', us(0),
                  us(10));
  timeline.record(timeline.lane("config"), timeline.label("sobel"), '#', us(2),
                  us(6));
  obs::ChromeTrace trace;
  trace.add("prtr", timeline);

  const auto processes = verify::loadChromeTrace(trace.toJson());
  ASSERT_EQ(processes.size(), 1u);
  EXPECT_EQ(processes[0].name, "prtr");
  ASSERT_EQ(processes[0].spans.size(), 2u);
  EXPECT_EQ(processes[0].spans[0].lane, "CPU");
  EXPECT_EQ(processes[0].spans[0].label, "call(0)");
  EXPECT_EQ(processes[0].spans[0].start, us(0));
  EXPECT_EQ(processes[0].spans[0].end, us(10));
  EXPECT_EQ(processes[0].spans[1].lane, "config");
  EXPECT_EQ(processes[0].spans[1].start, us(2));
  EXPECT_EQ(processes[0].spans[1].end, us(6));

  DiagnosticSink sink;
  verify::checkTrace(processes, sink);
  EXPECT_TRUE(sink.codes().empty()) << sink.toText();
}

TEST(TraceLoad, NegativeDurationSurvivesLoadingAndIsTl001) {
  // A causality-violating trace cannot come from sim::Timeline (record()
  // rejects it); post-hoc verification must still load and diagnose it.
  const std::string json =
      R"({"traceEvents":[)"
      R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"prtr"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"CPU"}},)"
      R"({"name":"bad","cat":"CPU","ph":"X","pid":1,"tid":1,"ts":10,"dur":-4}]})";
  const auto processes = verify::loadChromeTrace(json);
  ASSERT_EQ(processes.size(), 1u);
  ASSERT_EQ(processes[0].spans.size(), 1u);
  EXPECT_LT(processes[0].spans[0].end, processes[0].spans[0].start);
  DiagnosticSink sink;
  verify::checkTrace(processes, sink);
  EXPECT_TRUE(has(sink, "TL001")) << sink.toText();
}

TEST(TraceLoad, MalformedJsonThrows) {
  EXPECT_THROW((void)verify::loadChromeTrace("{"), util::DomainError);
  EXPECT_THROW((void)verify::loadChromeTrace(R"({"events":[]})"),
               util::DomainError);
  EXPECT_THROW((void)verify::loadChromeTraceFile("/nonexistent/trace.json"),
               util::Error);
}

TEST(TraceDiff, IdenticalTracesHaveNoFindings) {
  const std::vector<verify::TraceProcess> capture{
      {"prtr", {span("CPU", "a", 0, 1), span("config", "b", 1, 2)}, {}, {}}};
  DiagnosticSink sink;
  verify::compareTraces(capture, capture, sink);
  EXPECT_TRUE(sink.codes().empty()) << sink.toText();
}

TEST(TraceDiff, DifferencesAreDt002) {
  const std::vector<verify::TraceProcess> left{
      {"prtr", {span("CPU", "a", 0, 1)}, {}, {}}};
  const std::vector<verify::TraceProcess> endDiffers{
      {"prtr", {span("CPU", "a", 0, 2)}, {}, {}}};
  DiagnosticSink sink;
  verify::compareTraces(left, endDiffers, sink);
  EXPECT_TRUE(has(sink, "DT002")) << sink.toText();

  const std::vector<verify::TraceProcess> spanCountDiffers{
      {"prtr", {span("CPU", "a", 0, 1), span("CPU", "b", 1, 2)}, {}, {}}};
  DiagnosticSink sink2;
  verify::compareTraces(left, spanCountDiffers, sink2);
  EXPECT_TRUE(has(sink2, "DT002")) << sink2.toText();
}

// ---------------------------------------------------------------------------
// Inline scenario verification
// ---------------------------------------------------------------------------

TEST(ScenarioVerify, CleanScenarioPassesWithNoOtherHooks) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 6, util::Bytes{1'000'000});
  runtime::ScenarioOptions options;
  options.verify = true;
  const runtime::ScenarioResult result =
      runtime::runScenario(registry, workload, options);
  EXPECT_GT(result.speedup, 1.0);
}

TEST(ScenarioVerify, VerifiedTimelinesMatchHookProvidedOnes) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{500'000});
  sim::Timeline prtrTimeline;
  runtime::ScenarioOptions options;
  options.verify = true;
  options.hooks.timeline = &prtrTimeline;
  (void)runtime::runScenario(registry, workload, options);
  // The checker ran over the caller's timeline, which really was recorded.
  EXPECT_FALSE(prtrTimeline.empty());
  DiagnosticSink sink;
  verify::checkTimeline("prtr", prtrTimeline, sink);
  EXPECT_FALSE(sink.hasErrors()) << sink.toText();
}

}  // namespace
}  // namespace prtr
