// Sweep-engine benchmark: the same paper reproductions (Figure 5, Figure 9,
// chassis scaling) run serially and on the exec work-stealing pool, with
// wall-clock timings, a byte-identity check on every output, and the
// repeated-layout artifact-cache hit rate. This is the perf gate for the
// prtr::exec subsystem: CI runs it with --json and validates that the
// pooled sweeps are no slower than serial and produce identical bytes.
//
// The Fig-9 runs also return their merged metrics snapshot (every point's
// snapshot folded in point order), so the byte-identity check covers it
// too, and the four-participant run feeds the parallel-efficiency scalars.
// CI gates those only when the measured host_concurrency scalar shows four
// threads really run at once.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <utility>
#include <vector>

#include "analysis/figures.hpp"
#include "bench/host.hpp"
#include "case.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "hprc/chassis.hpp"
#include "util/table.hpp"

namespace {

using namespace prtr;

/// Wall-clock of one run, in milliseconds.
template <typename Fn>
double timedMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// The Figure-9 sweep this case times (smaller than the fig9b case's grid so
/// the CI smoke run stays fast, but large enough to amortize pool startup).
std::string runFig9(std::size_t threads, exec::ArtifactCache* artifacts,
                    obs::MetricsSnapshot* metrics = nullptr,
                    obs::ChromeTrace* trace = nullptr) {
  analysis::Fig9Options opts;
  opts.basis = model::ConfigTimeBasis::kMeasured;
  opts.points = 12;
  opts.xTaskLo = 1e-2;
  opts.xTaskHi = 20.0;
  opts.nCalls = 120;
  opts.threads = threads;
  opts.artifacts = artifacts;
  opts.metrics = metrics;
  opts.trace = trace;
  return analysis::fig9Table(analysis::makeFig9(opts)).toString();
}

/// The Figure-5 series family (analytic; exercises parallelMap ordering).
std::string runFig5(std::size_t threads) {
  const auto series = analysis::makeFig5Series(0.17, {0.0, 0.25, 0.5, 0.75, 1.0},
                                               161, 1e-3, 100.0, threads);
  std::string out;
  for (const auto& s : series) {
    out += s.name;
    for (const double y : s.y) out += ',' + util::formatDouble(y, 6);
    out += '\n';
  }
  return out;
}

/// The 6-blade chassis run (exercises the deterministic bladeN. merge).
std::string runChassisSweep(std::size_t threads,
                            exec::ArtifactCache* artifacts) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 48, util::Bytes{10'000'000});
  hprc::ChassisOptions options;
  options.blades = 6;
  options.threads = threads;
  options.scenario.forceMiss = true;
  options.scenario.basis = model::ConfigTimeBasis::kMeasured;
  options.scenario.artifacts = artifacts;
  const hprc::ChassisReport report =
      hprc::runChassis(registry, workload, options);
  return report.toString() + report.metrics.toString();
}

}  // namespace

int prtr::bench::cases::sweep(obs::BenchReport& report) {
  const std::size_t n = report.options().threads();
  exec::Pool::setGlobalThreads(n);

  // Thread ladder: 1, 2, 4, N (deduplicated, capped at N).
  std::vector<std::size_t> ladder{1};
  for (const std::size_t t : {std::size_t{2}, std::size_t{4}, n}) {
    if (t <= n && t != ladder.back()) ladder.push_back(t);
  }

  std::cout << "=== Sweep engine: serial vs exec::Pool (" << n
            << " worker threads) ===\n\n";

  // --- Figure 9, serial reference, then the ladder. Every run must render
  // byte-identical tables: parallelism only reorders the work, not results.
  // The serial run also returns its merged metrics; that snapshot is the
  // reference the pooled runs must reproduce byte for byte.
  bool identical = true;
  std::string fig9Ref;
  obs::MetricsSnapshot fig9SerialMetrics;
  const double fig9SerialMs =
      timedMs([&] { fig9Ref = runFig9(1, nullptr, &fig9SerialMetrics); });
  const std::string fig9MetricsRef = fig9SerialMetrics.toJson();
  double fig9ParallelMs = fig9SerialMs;
  util::Table fig9Times{{"threads", "fig9 (ms)", "speedup"}};
  fig9Times.row().cell(std::uint64_t{1}).cell(util::formatDouble(fig9SerialMs, 2))
      .cell("1");
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    const std::size_t t = ladder[i];
    std::string out;
    const double ms = timedMs([&] { out = runFig9(t, nullptr); });
    identical = identical && out == fig9Ref;
    if (t == n) fig9ParallelMs = ms;
    fig9Times.row()
        .cell(std::uint64_t{t})
        .cell(util::formatDouble(ms, 2))
        .cell(util::formatDouble(fig9SerialMs / ms, 3));
  }
  fig9Times.print(std::cout);
  report.table("fig9_times", fig9Times);

  // --- Four-participant Fig-9 run, always measured: feeds the
  // parallel-efficiency scalars, and checks that its merged metrics are
  // byte-identical to the serial reference. The pool caps participants
  // at its worker count, and a host may time-slice them, so CI gates the
  // efficiency only when host_concurrency shows four threads really ran at
  // once; otherwise it is informational (the "_wall" suffix keeps
  // prtr-report treating it as wall-clock). host_concurrency is probed on
  // both sides of the timed run and keeps the lower reading, so the gate
  // only judges a run the host gave the cores to throughout.
  const double concurrencyBefore = bench::hostConcurrency(4);
  obs::MetricsSnapshot fig9T4Metrics;
  std::string fig9T4Out;
  const double fig9T4Ms =
      timedMs([&] { fig9T4Out = runFig9(4, nullptr, &fig9T4Metrics); });
  identical = identical && fig9T4Out == fig9Ref;
  identical = identical && fig9T4Metrics.toJson() == fig9MetricsRef;
  const double speedupT4 = fig9SerialMs / fig9T4Ms;
  std::cout << "\nfig9 sweep at 4 participants: "
            << util::formatDouble(fig9T4Ms, 2) << " ms ("
            << util::formatDouble(speedupT4, 3) << "x serial, efficiency "
            << util::formatDouble(speedupT4 / 4.0, 3) << ")\n";
  const double hostConcurrencyT4 =
      std::min(concurrencyBefore, bench::hostConcurrency(4));
  std::cout << "host concurrency: 4 threads ran "
            << util::formatDouble(hostConcurrencyT4, 3)
            << "x the throughput of one\n";

  // --- With --trace, one more run at the requested width writes the merged
  // Chrome trace: CI compares the --threads 1 and --threads 4 trace files
  // byte for byte (simulated time is schedule-independent).
  if (obs::ChromeTrace* trace = report.trace()) {
    identical = identical && runFig9(n, nullptr, nullptr, trace) == fig9Ref;
  }

  // --- Figure 5 and chassis: serial vs N threads, byte identity.
  const std::string fig5Ref = runFig5(1);
  identical = identical && runFig5(n) == fig5Ref;
  std::string chassisRef;
  const double chassisSerialMs =
      timedMs([&] { chassisRef = runChassisSweep(1, nullptr); });
  std::string chassisPooled;
  const double chassisParallelMs =
      timedMs([&] { chassisPooled = runChassisSweep(n, nullptr); });
  identical = identical && chassisPooled == chassisRef;
  std::cout << "\nchassis (6 blades): serial "
            << util::formatDouble(chassisSerialMs, 2) << " ms, pooled "
            << util::formatDouble(chassisParallelMs, 2) << " ms\n";

  // --- Artifact cache: the same Fig-9 sweep re-run against one cache. The
  // layout never changes across points, so after the first point seeds the
  // floorplan + bitstreams everything else hits.
  exec::ArtifactCache cache;
  identical = identical && runFig9(n, &cache) == fig9Ref;
  const double cachedMs = timedMs([&] {
    identical = identical && runFig9(n, &cache) == fig9Ref;
  });
  const exec::ArtifactCache::Stats stats = cache.stats();
  std::cout << "repeated-layout sweep with ArtifactCache: "
            << util::formatDouble(cachedMs, 2) << " ms, hit rate "
            << util::formatDouble(stats.hitRate(), 4) << " (" << stats.hits
            << " hits / " << stats.misses << " misses)\n";

  const double speedup = fig9SerialMs / fig9ParallelMs;
  std::cout << "\nfig9 sweep speedup at " << n
            << " threads: " << util::formatDouble(speedup, 3)
            << "x; outputs byte-identical: " << (identical ? "yes" : "NO")
            << '\n';

  // Single-thread Fig-9 throughput plus the kernel-rewrite gate: wall-clock
  // against the frozen pre-rewrite serial time (bench/goldens/
  // BENCH_sweep_pr6.json, captured on the CI reference machine). CI asserts
  // speedup_vs_pr6_wall >= 5 from the JSON files; the scalar here makes the
  // ratio visible in every report. The "_wall" suffix keeps prtr-report
  // treating both as wall-clock (informational unless --gate-wall).
  constexpr double kFrozenPr6SerialMs = 987.416757;
  const double points = 12.0;
  report.scalar("fig9_points_per_s_wall", points / (fig9SerialMs / 1e3));
  report.scalar("speedup_vs_pr6_wall", kFrozenPr6SerialMs / fig9SerialMs);
  report.scalar("time_serial_ms", fig9SerialMs);
  report.scalar("time_parallel_ms", fig9ParallelMs);
  report.scalar("speedup_parallel", speedup);
  report.scalar("time_t4_ms", fig9T4Ms);
  report.scalar("fig9_speedup_t4_wall", speedupT4);
  report.scalar("parallel_efficiency_t4_wall", speedupT4 / 4.0);
  report.scalar("host_concurrency", hostConcurrencyT4);
  report.scalar("chassis_serial_ms", chassisSerialMs);
  report.scalar("chassis_parallel_ms", chassisParallelMs);
  report.scalar("time_cached_ms", cachedMs);
  report.scalar("cache_hit_rate", stats.hitRate());
  report.scalar("outputs_identical", std::uint64_t{identical ? 1u : 0u});
  report.metrics(std::move(fig9T4Metrics));
  report.metrics(exec::Pool::global().metricsSnapshot());
  report.metrics(cache.metricsSnapshot());
  return identical ? 0 : 1;
}
