// Reproduces the execution profiles of Figures 2-4 as simulator-derived
// Gantt charts:
//   Figure 2/3: FRTR task anatomy (full config -> control -> in -> compute
//               -> out, repeated per call);
//   Figure 4(a): PRTR missed tasks (partial configurations overlapping the
//               previous task's execution);
//   Figure 4(b): PRTR pre-fetched (hit) tasks (no configuration at all).
//
// With `--trace out.json` the same timelines are exported as a Chrome
// trace_event document: load it in chrome://tracing or ui.perfetto.dev to
// scrub through the profiles interactively.
#include <iostream>

#include "case.hpp"
#include "tasks/workload.hpp"

int prtr::bench::cases::profiles(obs::BenchReport& report) {
  obs::ChromeTrace* trace = report.trace();
  const auto registry = tasks::makePaperFunctions();
  const util::Bytes data{30'000'000};  // mid-range task (~0.16 s)

  {
    std::cout << "=== Figures 2/3: task execution using FRTR ===\n";
    sim::Timeline frtrTl;
    runtime::ScenarioOptions so;
    so.forceMiss = true;
    so.hooks.frtrTimeline = &frtrTl;
    const auto workload = tasks::makeRoundRobinWorkload(registry, 4, data);
    const auto result = runtime::runScenario(registry, workload, so);
    std::cout << frtrTl.renderGantt(110);
    std::cout << "FRTR total: " << result.frtr.total.toString()
              << " (config overhead "
              << result.frtr.configOverheadFraction() * 100.0 << "% -- the "
              << "\"25% to 98.5%\" regime of the paper's introduction)\n\n";
    if (trace != nullptr) trace->add("fig2-3 FRTR", frtrTl);
    report.scalar("frtr_config_overhead", result.frtr.configOverheadFraction());

    std::cout << "=== Figure 4(a): PRTR, missed tasks (H=0, configs overlap "
                 "previous execution) ===\n";
    sim::Timeline prtrTl;
    so.hooks.frtrTimeline = nullptr;
    so.hooks.timeline = &prtrTl;
    const auto prtrResult = runtime::runScenario(registry, workload, so);
    std::cout << prtrTl.renderGantt(110);
    std::cout << "PRTR total: " << prtrResult.prtr.total.toString()
              << ", speedup " << prtrResult.speedup << "x\n\n";
    if (trace != nullptr) trace->add("fig4a PRTR miss", prtrTl);
    report.scalar("miss_speedup", prtrResult.speedup);
    report.metrics(prtrResult.metrics);
  }

  {
    std::cout << "=== Figure 4(b): PRTR, pre-fetched (hit) tasks ===\n";
    sim::Timeline hitTl;
    runtime::ScenarioOptions so;
    so.forceMiss = false;  // alternating 2 modules stay resident in 2 PRRs
    so.hooks.timeline = &hitTl;
    tasks::Workload alternating{"alt", {}};
    for (int i = 0; i < 6; ++i) {
      alternating.calls.push_back(
          tasks::TaskCall{static_cast<std::size_t>(i % 2), data});
    }
    const auto result = runtime::runScenario(registry, alternating, so);
    std::cout << hitTl.renderGantt(110);
    std::cout << "Hit ratio: " << result.prtr.hitRatio()
              << " (only the two warm-up loads configure), speedup "
              << result.speedup << "x\n";
    if (trace != nullptr) trace->add("fig4b PRTR hit", hitTl);
    report.scalar("hit_ratio", result.prtr.hitRatio());
    report.scalar("hit_speedup", result.speedup);
  }
  return 0;
}
