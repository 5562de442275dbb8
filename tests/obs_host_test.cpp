// Tests for host profiling — the always-on host.* timing histograms in
// obs::hostMetrics() (aggregation, lossless concurrent recording, and their
// exclusion from simulated outputs) — and for the deterministic
// counter-track sampler that feeds the Chrome-trace exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "exec/pool.hpp"
#include "obs/host.hpp"
#include "obs/trace_export.hpp"
#include "runtime/scenario.hpp"
#include "sim/trace.hpp"
#include "tasks/workload.hpp"

namespace {

using namespace prtr;

/// Histogram `name` as recorded into the host registry since `before`.
/// Every test in this binary shares obs::hostMetrics(), so checks measure
/// the delta over their own window.
obs::HistogramSummary hostDelta(const obs::MetricsSnapshot& before,
                                std::string_view name) {
  const obs::MetricsSnapshot delta =
      obs::hostMetrics().snapshot().diff(before);
  const auto it = delta.histograms.find(name);
  return it != delta.histograms.end() ? it->second : obs::HistogramSummary{};
}

obs::HistogramId hostId(std::string_view name) {
  return obs::MetricTable::global().histogram(name);
}

TEST(Profiler, RecordAggregatesUnderTheLabel) {
  const obs::HistogramId a = hostId("host.test.phase_a_ns");
  const obs::HistogramId b = hostId("host.test.phase_b_ns");
  const obs::MetricsSnapshot before = obs::hostMetrics().snapshot();
  obs::hostMetrics().observe(a, 100);
  obs::hostMetrics().observe(a, 300);
  obs::hostMetrics().observe(b, 50);
  const obs::HistogramSummary phaseA = hostDelta(before, "host.test.phase_a_ns");
  EXPECT_EQ(phaseA.count, 2u);
  EXPECT_EQ(phaseA.sum, 400);
  EXPECT_EQ(phaseA.min, 100);
  EXPECT_EQ(phaseA.max, 300);
  EXPECT_GE(phaseA.p50(), static_cast<double>(phaseA.min));
  EXPECT_LE(phaseA.p95(), static_cast<double>(phaseA.max));
  EXPECT_EQ(hostDelta(before, "host.test.phase_b_ns").count, 1u);
}

TEST(Profiler, HostTimerAddsExactlyOneObservation) {
  const obs::HistogramId id = hostId("host.test.timer_ns");
  const obs::MetricsSnapshot before = obs::hostMetrics().snapshot();
  {
    const obs::HostTimer timer{id};
  }
  const obs::HistogramSummary timed = hostDelta(before, "host.test.timer_ns");
  EXPECT_EQ(timed.count, 1u);
  EXPECT_GE(timed.sum, 0);
}

// The same work fanned out at different pool widths, and over raw threads,
// must aggregate to the same count and sum: the host registry's mutex makes
// concurrent recording from pool workers, the participating caller, and
// unrelated threads lossless.
TEST(Profiler, AggregationIsDeterministicAcrossPoolWidths) {
  constexpr std::size_t kItems = 64;
  std::vector<std::int64_t> items(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    items[i] = static_cast<std::int64_t>(i + 1);
  }
  const auto itemSum = static_cast<std::int64_t>(kItems * (kItems + 1) / 2);
  const obs::HistogramId sampled = hostId("host.test.work_sample");
  const obs::HistogramId timed = hostId("host.test.work_item_ns");
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const obs::MetricsSnapshot before = obs::hostMetrics().snapshot();
    const auto out = exec::parallelMap(
        items,
        [&](std::int64_t item) {
          const obs::HostTimer timer{timed};
          obs::hostMetrics().observe(sampled, item);
          return item;
        },
        exec::ForOptions{.threads = threads});
    EXPECT_EQ(out.size(), kItems);
    const obs::HistogramSummary sample =
        hostDelta(before, "host.test.work_sample");
    EXPECT_EQ(sample.count, kItems) << "threads=" << threads;
    EXPECT_EQ(sample.sum, itemSum) << "threads=" << threads;
    EXPECT_EQ(hostDelta(before, "host.test.work_item_ns").count, kItems)
        << "threads=" << threads;
  }

  // Raw threads outside the pool share one obs thread slot, so only the
  // registry's own lock keeps their records apart.
  const obs::MetricsSnapshot before = obs::hostMetrics().snapshot();
  std::vector<std::thread> raw;
  for (std::size_t t = 0; t < 2; ++t) {
    raw.emplace_back([&, t] {
      for (std::size_t i = t; i < kItems; i += 2) {
        obs::hostMetrics().observe(sampled, items[i]);
      }
    });
  }
  for (std::thread& thread : raw) thread.join();
  const obs::HistogramSummary sample =
      hostDelta(before, "host.test.work_sample");
  EXPECT_EQ(sample.count, kItems);
  EXPECT_EQ(sample.sum, itemSum);
}

bool hasHostName(const obs::MetricsSnapshot& snapshot) {
  const auto isHost = [](const auto& entry) {
    return entry.first.starts_with("host.");
  };
  return std::any_of(snapshot.counters.begin(), snapshot.counters.end(),
                     isHost) ||
         std::any_of(snapshot.gauges.begin(), snapshot.gauges.end(), isHost) ||
         std::any_of(snapshot.histograms.begin(), snapshot.histograms.end(),
                     isHost);
}

// Host timings are wall-clock, so they must never reach a simulated output:
// the scenario's own metrics and its metrics hook stay free of host.*
// names, while the host registry gains one observation per phase.
TEST(Profiler, ScenarioHostTimingsStayOutOfSimulatedMetrics) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 6, util::Bytes{1'000'000});
  obs::Registry sink;
  runtime::ScenarioOptions options;
  options.forceMiss = true;
  options.hooks.metrics = &sink;

  const obs::MetricsSnapshot before = obs::hostMetrics().snapshot();
  const runtime::ScenarioResult result =
      runtime::runScenario(registry, workload, options);

  EXPECT_FALSE(result.metrics.empty());
  EXPECT_FALSE(hasHostName(result.metrics));
  EXPECT_FALSE(hasHostName(sink.snapshot()));
  EXPECT_EQ(hostDelta(before, "host.scenario.frtr_ns").count, 1u);
  EXPECT_EQ(hostDelta(before, "host.scenario.prtr_ns").count, 1u);
}

sim::Timeline syntheticTimeline() {
  // 8 ns horizon, bucketed by 4 below into 2 ns buckets:
  //   HT-in  busy [0, 2) ns          -> 1, 0, 0, 0
  //   config busy [2, 4) ns          -> 0, 1, 0, 0
  //   PRR0   busy [4, 8) ns          \  averaged over 2 lanes:
  //   PRR1   busy [6, 8) ns          /  0, 0, 0.5, 1
  sim::Timeline tl;
  const sim::LabelId compute = tl.label("compute");
  tl.record(tl.lane("HT-in"), tl.label("data-in"), '>', util::Time::zero(),
            util::Time::nanoseconds(2));
  tl.record(tl.lane("config"), tl.label("partial"), 'P',
            util::Time::nanoseconds(2), util::Time::nanoseconds(4));
  tl.record(tl.lane("PRR0"), compute, '#', util::Time::nanoseconds(4),
            util::Time::nanoseconds(8));
  tl.record(tl.lane("PRR1"), compute, '#', util::Time::nanoseconds(6),
            util::Time::nanoseconds(8));
  return tl;
}

TEST(CounterSampler, GoldenBusyFractionsForAHandBuiltTimeline) {
  const auto tracks = obs::sampleTimelineCounters(syntheticTimeline(), 4);
  ASSERT_EQ(tracks.size(), 3u);  // no HT-out spans -> no link.out track

  EXPECT_EQ(tracks[0].name, "link.in.occupancy");
  ASSERT_EQ(tracks[0].samples.size(), 4u);
  EXPECT_DOUBLE_EQ(tracks[0].samples[0].value, 1.0);
  EXPECT_DOUBLE_EQ(tracks[0].samples[1].value, 0.0);
  EXPECT_EQ(tracks[0].samples[1].at_ps, 2'000);

  EXPECT_EQ(tracks[1].name, "icap.busy");
  EXPECT_DOUBLE_EQ(tracks[1].samples[0].value, 0.0);
  EXPECT_DOUBLE_EQ(tracks[1].samples[1].value, 1.0);

  EXPECT_EQ(tracks[2].name, "prr.residency");
  EXPECT_DOUBLE_EQ(tracks[2].samples[2].value, 0.5);
  EXPECT_DOUBLE_EQ(tracks[2].samples[3].value, 1.0);
}

TEST(CounterSampler, EmptyTimelineYieldsNoTracks) {
  EXPECT_TRUE(obs::sampleTimelineCounters(sim::Timeline{}).empty());
  EXPECT_TRUE(obs::sampleTimelineCounters(syntheticTimeline(), 0).empty());
}

TEST(CounterSampler, SamplingIsDeterministic) {
  const auto first = obs::sampleTimelineCounters(syntheticTimeline());
  const auto second = obs::sampleTimelineCounters(syntheticTimeline());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name);
    ASSERT_EQ(first[i].samples.size(), second[i].samples.size());
    for (std::size_t s = 0; s < first[i].samples.size(); ++s) {
      EXPECT_EQ(first[i].samples[s].at_ps, second[i].samples[s].at_ps);
      EXPECT_EQ(first[i].samples[s].value, second[i].samples[s].value);
    }
  }
}

// A real scenario run must produce the tracks the bench trace (fig9a
// --trace) is expected to carry: link occupancy and ICAP busy.
TEST(CounterSampler, ScenarioTimelineYieldsLinkAndIcapTracks) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{1'000'000});
  sim::Timeline timeline;
  runtime::ScenarioOptions so;
  so.forceMiss = true;
  so.hooks.timeline = &timeline;
  (void)runtime::runScenario(registry, workload, so);
  ASSERT_FALSE(timeline.empty());

  const auto tracks = obs::sampleTimelineCounters(timeline);
  auto has = [&](std::string_view name) {
    for (const auto& t : tracks) {
      if (t.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("link.in.occupancy"));
  EXPECT_TRUE(has("link.out.occupancy"));
  EXPECT_TRUE(has("icap.busy"));
  EXPECT_TRUE(has("prr.residency"));
  for (const auto& track : tracks) {
    for (const auto& sample : track.samples) {
      EXPECT_GE(sample.value, 0.0);
      EXPECT_LE(sample.value, 1.0);
    }
  }
}

}  // namespace
