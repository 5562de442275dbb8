#include "verify/schedule.hpp"

#include <bit>
#include <cstdio>
#include <set>
#include <utility>

#include "analysis/figures.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "util/crc32.hpp"
#include "verify/oracle.hpp"

namespace prtr::verify {
namespace {

/// Exact byte image of a sweep result: bit patterns, not formatted text,
/// so a 1-ulp divergence cannot hide behind rounding.
std::string serialize(const std::vector<analysis::Fig9Point>& points) {
  std::string bytes;
  bytes.reserve(points.size() * 5 * 8);
  const auto append = [&bytes](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>(value >> (8 * i)));
    }
  };
  for (const analysis::Fig9Point& point : points) {
    append(std::bit_cast<std::uint64_t>(point.xTask));
    append(static_cast<std::uint64_t>(point.dataBytes.count()));
    append(std::bit_cast<std::uint64_t>(point.simSpeedup));
    append(std::bit_cast<std::uint64_t>(point.modelSpeedup));
    append(std::bit_cast<std::uint64_t>(point.modelAsymptote));
  }
  return bytes;
}

std::string crcHex(const std::string& bytes) {
  util::Crc32 crc;
  crc.update({reinterpret_cast<const std::uint8_t*>(bytes.data()),
              bytes.size()});
  char out[9];
  std::snprintf(out, sizeof out, "%08x", crc.value());
  return out;
}

std::string runSweep(const ExploreOptions& options,
                     exec::ArtifactCache* artifacts) {
  if (options.sweep) return options.sweep();
  analysis::Fig9Options fig9;
  fig9.points = options.points;
  fig9.nCalls = options.nCalls;
  fig9.artifacts = artifacts;
  return serialize(analysis::makeFig9(fig9));
}

}  // namespace

ExploreResult exploreSchedules(const ExploreOptions& options,
                               analyze::DiagnosticSink& sink) {
  ExploreResult result;

  // One content-addressed artifact cache across every replay: floorplans
  // and bitstreams are immutable, so sharing them changes nothing about
  // the bytes being compared and makes each run cheap enough to afford
  // hundreds of interleavings.
  exec::ArtifactCache artifacts;

  // Reference: the serial schedule — width 1, no oracle. Every perturbed
  // replay must reproduce these bytes exactly.
  exec::Pool::setGlobalThreads(1);
  const std::string reference = runSweep(options, &artifacts);
  result.referenceDigest = crcHex(reference);

  std::set<std::pair<std::size_t, std::uint64_t>> schedules;
  std::uint64_t seed = options.baseSeed;
  for (const std::size_t width : options.widths) {
    exec::Pool::setGlobalThreads(width);
    for (std::size_t s = 0; s < options.seedsPerWidth; ++s, ++seed) {
      SeededOracle oracle{seed};
      exec::Pool& pool = exec::Pool::global();
      pool.setScheduleOracle(&oracle);
      const std::string bytes = runSweep(options, &artifacts);
      pool.setScheduleOracle(nullptr);

      ScheduleRun run;
      run.width = width;
      run.seed = seed;
      run.signature = oracle.signature();
      run.decisions = oracle.decisions();
      run.identical = bytes == reference;
      if (!run.identical) {
        ++result.mismatches;
        sink.emit("DT001",
                  "fig9 sweep, pool width " + std::to_string(width) +
                      ", seed " + std::to_string(seed),
                  "perturbed schedule (signature " +
                      std::to_string(run.signature) + ", " +
                      std::to_string(run.decisions) +
                      " decisions) produced bytes with digest " +
                      crcHex(bytes) + " != reference " +
                      result.referenceDigest);
      }
      schedules.emplace(width, run.signature);
      result.runs.push_back(run);
    }
  }
  exec::Pool::setGlobalThreads(0);  // restore the default-width pool

  result.distinctSchedules = schedules.size();
  if (options.minDistinctSchedules != 0 &&
      result.distinctSchedules < options.minDistinctSchedules) {
    sink.emit("DT003", "fig9 sweep exploration",
              "exercised " + std::to_string(result.distinctSchedules) +
                  " distinct schedules, fewer than the requested " +
                  std::to_string(options.minDistinctSchedules));
  }
  return result;
}

}  // namespace prtr::verify
