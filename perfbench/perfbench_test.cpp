// Tests of the benchmark's own code: percentile selection, the CPU-time and
// RSS readers, the check-set digests, and the output invariants.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "host.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_FALSE(tailPercentile(0).has_value());
  EXPECT_FALSE(tailPercentile(19).has_value());
  EXPECT_EQ(tailPercentile(20), 50.0);
  EXPECT_EQ(tailPercentile(99), 50.0);
  EXPECT_EQ(tailPercentile(100), 90.0);
  EXPECT_EQ(tailPercentile(199), 90.0);
  EXPECT_EQ(tailPercentile(200), 95.0);
  EXPECT_EQ(tailPercentile(999), 95.0);
  EXPECT_EQ(tailPercentile(1000), 99.0);
  EXPECT_EQ(tailPercentile(10000), 99.9);
}

TEST(Percentile, InterpolatesSortedValues) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.5), 99.5);
}

TEST(BlockRate, RatesWholeBlocks) {
  EXPECT_EQ(blockRate({}, 4, 1.0, 50.0), 0.0);
  // Blocks of two ops: 2/1 s, 2/2 s, 2/4 s; the trailing single op drops.
  const std::vector<double> seconds{0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 9.0};
  EXPECT_DOUBLE_EQ(blockRate(seconds, 2, 1.0, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(blockRate(seconds, 2, 1.0, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(blockRate(seconds, 2, 1.0, 0.0), 0.5);
  // One entry per block, each entry a batch of 1000 ops.
  EXPECT_DOUBLE_EQ(blockRate({0.5, 0.25}, 1, 1000.0, 100.0), 4000.0);
  // A lone incomplete block still rates.
  EXPECT_DOUBLE_EQ(blockRate({1.0}, 16, 1.0, 90.0), 1.0);
}

TEST(HostReaders, ParsesProcStatus) {
  std::istringstream status{
      "Name:\tprtr_perfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\n"
      "VmRSS:\t    6789 kB\nThreads:\t1\n"};
  const MemStatus mem = parseMemStatus(status);
  EXPECT_EQ(mem.hwmKb, 12345u);
  EXPECT_EQ(mem.rssKb, 6789u);
  std::istringstream empty{"Name:\tx\n"};
  EXPECT_EQ(parseMemStatus(empty).hwmKb, 0u);
}

TEST(HostReaders, RssPeakFollowsTouchedMemory) {
  const MemStatus before = readMemStatus();
  EXPECT_GT(before.rssKb, 0u);
  EXPECT_GE(before.hwmKb, before.rssKb);
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<char> block(kBytes, 1);  // value-initialized: every page touched
  const MemStatus during = readMemStatus();
  EXPECT_GE(during.rssKb, before.rssKb + kBytes / 1024 / 2);
  EXPECT_GE(during.hwmKb, during.rssKb);
  EXPECT_EQ(block[kBytes - 1], 1);
}

TEST(HostReaders, CpuTimeAdvancesWithWork) {
  const double cpu0 = processCpuSeconds();
  const double wall0 = wallSeconds();
  volatile std::uint64_t x = 1;
  while (processCpuSeconds() - cpu0 < 0.05) x = x * 6364136223846793005ull + 1;
  const double cpu = processCpuSeconds() - cpu0;
  EXPECT_GE(cpu, 0.05);
  EXPECT_GE(wallSeconds() - wall0, cpu * 0.5);
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanRecorder spans;
  {
    const SpanRecorder::Scope outer{&spans, "outer", 0};
    const SpanRecorder::Scope inner{&spans, "inner", 0};
  }
  const auto totals = spans.totals();
  ASSERT_EQ(totals.count("outer"), 1u);
  const auto& outer = totals.at("outer");
  const auto& inner = totals.at("inner");
  EXPECT_EQ(outer.selfNs, outer.totalNs - inner.totalNs);
  EXPECT_EQ(inner.selfNs, inner.totalNs);
  EXPECT_NE(spans.toChromeJson().find("\"name\":\"inner\""), std::string::npos);
}

TEST(Digest, RepeatsForOneSeedAndChangesAcrossSeeds) {
  EXPECT_EQ(digestHex("abc"), digestHex("abc"));
  EXPECT_NE(digestHex("abc"), digestHex("abd"));
  const std::string a = checkDigest("fig9_sweep", 1, PERFBENCH_SPEC_DIR);
  EXPECT_EQ(a, checkDigest("fig9_sweep", 1, PERFBENCH_SPEC_DIR));
  EXPECT_NE(a, checkDigest("fig9_sweep", 2, PERFBENCH_SPEC_DIR));
  const std::string f = checkDigest("fleet_steady", 1, PERFBENCH_SPEC_DIR);
  EXPECT_EQ(f, checkDigest("fleet_steady", 1, PERFBENCH_SPEC_DIR));
  EXPECT_NE(f, checkDigest("fleet_steady", 2, PERFBENCH_SPEC_DIR));
}

TEST(Digest, CommittedSeedsMatch) {
  const std::string file = PERFBENCH_DIGEST_FILE;
  for (const std::string_view workload : kWorkloads) {
    const auto committed = committedDigest(file, workload, 1);
    ASSERT_TRUE(committed.has_value()) << workload;
    EXPECT_EQ(*committed, checkDigest(workload, 1, PERFBENCH_SPEC_DIR)) << workload;
  }
  EXPECT_FALSE(committedDigest(file, "fig9_sweep", 1ull << 60).has_value());
}

TEST(Invariants, Fig9RejectsTamperedPoint) {
  prtr::analysis::Fig9Point point;
  point.xTask = 0.1;
  point.simSpeedup = 8.5;
  point.modelSpeedup = 8.5;
  point.modelAsymptote = 8.7;
  EXPECT_FALSE(checkFig9Point(point).has_value());
  point.simSpeedup = 0.9;  // slower than FRTR
  EXPECT_TRUE(checkFig9Point(point).has_value());
  point.simSpeedup = 9.0;  // beyond the eq. 7 asymptote
  EXPECT_TRUE(checkFig9Point(point).has_value());
}

prtr::fleet::FleetReport healthyReport() {
  prtr::fleet::FleetReport r;
  r.offered = 1000;
  r.admitted = 990;
  r.shed = 10;
  r.completed = 990;
  r.retries = 5;
  r.tailEligible = 20;
  r.tracesKeptTail = 20;
  return r;
}

TEST(Invariants, FleetRejectsTamperedReport) {
  const prtr::fleet::FleetOptions options;
  const prtr::fleet::FleetReport ok = healthyReport();
  EXPECT_FALSE(checkFleetReport(ok, FleetKind::kSteady, options).has_value());
  EXPECT_FALSE(checkFleetReport(ok, FleetKind::kChaosSurge, options).has_value());

  prtr::fleet::FleetReport lost = ok;
  lost.completed -= 1;  // a request that never ended
  EXPECT_TRUE(checkFleetReport(lost, FleetKind::kSteady, options).has_value());

  prtr::fleet::FleetReport failed = ok;
  failed.completed -= 1;
  failed.failed = 1;
  EXPECT_TRUE(checkFleetReport(failed, FleetKind::kSteady, options).has_value());
  EXPECT_FALSE(checkFleetReport(failed, FleetKind::kChaosSurge, options).has_value());

  prtr::fleet::FleetReport dropped = ok;
  dropped.tracesKeptTail = 19;  // tail retention below 1
  EXPECT_TRUE(checkFleetReport(dropped, FleetKind::kChaosSurge, options).has_value());

  prtr::fleet::FleetReport storm = ok;
  storm.retries = 300;  // 0.30 of admitted against a 0.2 budget
  EXPECT_TRUE(checkFleetReport(storm, FleetKind::kChaosSurge, options).has_value());
}

}  // namespace
}  // namespace perfbench
