// Tests for the verify::RaceDetector vector-clock happens-before checker:
// exactness on synthetic event streams (every RC code, no false positives
// for ordered pairs) and integration through the exec instrumentation seam
// (pool submit/steal/barrier edges, artifact-cache mutex modeling).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "fabric/floorplan.hpp"
#include "verify/race.hpp"

namespace prtr {
namespace {

using verify::Race;
using verify::RaceDetector;

std::vector<std::string> codesOf(const RaceDetector& detector) {
  std::vector<std::string> codes;
  for (const Race& race : detector.races()) codes.push_back(race.code);
  return codes;
}

/// Runs `fn` on a fresh OS thread and joins (a second dense thread index).
void onOtherThread(const std::function<void()>& fn) {
  std::thread thread{fn};
  thread.join();
}

TEST(RaceDetector, SingleThreadIsNeverRacy) {
  RaceDetector detector;
  detector.access(1, "site", true);
  detector.access(1, "site", false);
  detector.access(1, "site", true);
  EXPECT_TRUE(detector.races().empty());
  EXPECT_EQ(detector.stats().threads, 1u);
  EXPECT_EQ(detector.stats().writes, 2u);
  EXPECT_EQ(detector.stats().reads, 1u);
}

TEST(RaceDetector, ReleaseAcquireOrdersCrossThreadAccesses) {
  RaceDetector detector;
  detector.access(7, "site", true);
  detector.release(42);
  onOtherThread([&] {
    detector.acquire(42);
    detector.access(7, "site", true);   // ordered: no RC001
    detector.access(7, "site", false);  // own write: no RC003
  });
  EXPECT_TRUE(detector.races().empty()) << codesOf(detector).front();
  EXPECT_EQ(detector.stats().threads, 2u);
  EXPECT_EQ(detector.stats().releases, 1u);
  EXPECT_EQ(detector.stats().acquires, 1u);
}

TEST(RaceDetector, UnorderedWriteWriteIsRc001) {
  RaceDetector detector;
  detector.access(1, "first", true);
  onOtherThread([&] { detector.access(1, "second", true); });
  ASSERT_EQ(detector.races().size(), 1u);
  EXPECT_EQ(detector.races().front().code, "RC001");
  EXPECT_EQ(detector.races().front().objectId, 1u);
}

TEST(RaceDetector, WriteAfterUnorderedReadIsRc002) {
  RaceDetector detector;
  detector.access(2, "reader", false);
  onOtherThread([&] { detector.access(2, "writer", true); });
  ASSERT_EQ(detector.races().size(), 1u);
  EXPECT_EQ(detector.races().front().code, "RC002");
}

TEST(RaceDetector, ReadAfterUnorderedWriteIsRc003) {
  RaceDetector detector;
  detector.access(3, "writer", true);
  onOtherThread([&] { detector.access(3, "reader", false); });
  ASSERT_EQ(detector.races().size(), 1u);
  EXPECT_EQ(detector.races().front().code, "RC003");
}

TEST(RaceDetector, AcquireOfUnreleasedSyncIsRc004) {
  RaceDetector detector;
  detector.acquire(99);
  ASSERT_EQ(detector.races().size(), 1u);
  EXPECT_EQ(detector.races().front().code, "RC004");
  EXPECT_EQ(detector.races().front().objectId, 99u);
}

TEST(RaceDetector, RacesAreDeduplicatedPerObjectAndCode) {
  RaceDetector detector;
  detector.access(5, "a", true);
  onOtherThread([&] {
    detector.access(5, "b", true);
    detector.access(5, "c", true);  // same (object, RC001) pair
  });
  EXPECT_EQ(detector.races().size(), 1u);
  // A different object with the same defect is a separate race.
  detector.access(6, "a", true);
  onOtherThread([&] { detector.access(6, "b", true); });
  EXPECT_EQ(detector.races().size(), 2u);
}

TEST(RaceDetector, ReportEmitsRcDiagnostics) {
  RaceDetector detector;
  detector.access(1, "site", true);
  onOtherThread([&] { detector.access(1, "site", true); });
  analyze::DiagnosticSink sink;
  detector.report(sink);
  ASSERT_EQ(sink.codes().size(), 1u);
  EXPECT_EQ(sink.codes().front(), "RC001");
  EXPECT_TRUE(sink.hasErrors());
}

TEST(RaceDetector, ResetDropsEverything) {
  RaceDetector detector;
  detector.access(1, "site", true);
  onOtherThread([&] { detector.access(1, "site", true); });
  ASSERT_FALSE(detector.races().empty());
  detector.reset();
  EXPECT_TRUE(detector.races().empty());
  EXPECT_EQ(detector.stats().threads, 0u);
  EXPECT_EQ(detector.stats().writes, 0u);
}

// ---------------------------------------------------------------------------
// Integration through the exec seam
// ---------------------------------------------------------------------------

TEST(RaceDetectorIntegration, PoolParallelForIsRaceFree) {
  // The detector outlives the pool: a worker can still report a task's
  // completion edge briefly after the barrier releases the caller.
  RaceDetector detector;
  exec::Pool pool{3};
  pool.setRaceChecker(&detector);
  std::vector<int> out(64, 0);
  pool.parallelFor(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i);
  });
  pool.setRaceChecker(nullptr);
  EXPECT_TRUE(detector.races().empty())
      << "first: " << codesOf(detector).front();
  // The barrier edges were actually exercised.
  EXPECT_GT(detector.stats().releases, 0u);
  EXPECT_GT(detector.stats().acquires, 0u);
}

TEST(RaceDetectorIntegration, PoolSubmitEdgesAreObserved) {
  RaceDetector detector;
  exec::Pool pool{2};
  pool.setRaceChecker(&detector);
  std::vector<std::future<int>> futures;
  futures.reserve(16u);
  for (std::size_t i = 0; i < 16u; ++i) {
    const int n = static_cast<int>(i);
    futures.push_back(pool.submit([n] { return n * n; }));
  }
  for (std::size_t i = 0; i < 16u; ++i) {
    const int n = static_cast<int>(i);
    EXPECT_EQ(futures[i].get(), n * n);
  }
  pool.setRaceChecker(nullptr);
  EXPECT_TRUE(detector.races().empty());
  // One synchronous release per submission (completion releases may still
  // be landing when the future resolves); one acquire per executed task.
  EXPECT_GE(detector.stats().releases, 16u);
  EXPECT_GE(detector.stats().acquires, 16u);
}

TEST(RaceDetectorIntegration, ArtifactCacheMutexEdgesOrderEntryAccesses) {
  RaceDetector detector;
  exec::ArtifactCache cache;
  exec::Pool pool{4};
  cache.setRaceChecker(&detector);
  pool.setRaceChecker(&detector);
  // Many threads hammer the same key: the insert (write) and every hit
  // (read) are ordered by the modeled cache mutex, so no RC finding.
  pool.parallelFor(32, [&](std::size_t) {
    const auto plan = cache.floorplan(
        exec::KeyBuilder{}.add("race.plan").value(),
        [] { return fabric::makeDualPrrLayout(); });
    ASSERT_NE(plan, nullptr);
  });
  pool.setRaceChecker(nullptr);
  cache.setRaceChecker(nullptr);
  EXPECT_TRUE(detector.races().empty())
      << "first: " << codesOf(detector).front();
  EXPECT_GE(detector.stats().writes, 1u);   // the insert
  EXPECT_GT(detector.stats().reads, 0u);    // the hits
}

TEST(RaceDetectorIntegration, FreeFunctionArmsTheGlobalSeam) {
  // Never destroyed: the global pool's workers outlive this test body, and
  // a task's completion edge may land just after the parallelFor barrier.
  // A function-local static would be destroyed at exit before the global
  // pool (a namespace-scope static) joins its workers.
  static RaceDetector& detector = *new RaceDetector;
  detector.reset();
  exec::setRaceChecker(&detector);
  std::vector<int> out(32, 0);
  exec::parallelFor(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) + 1;
  });
  exec::setRaceChecker(nullptr);
  EXPECT_TRUE(detector.races().empty());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

}  // namespace
}  // namespace prtr
