// Ablation B: the paper's future work, implemented -- configuration
// pre-fetching and caching. Sweeps workload locality against prefetcher /
// cache-policy combinations, measures the achieved hit ratio H, and checks
// that plugging the measured H into equation (6) predicts the measured
// speedup (validating the model's H axis, which the authors could only
// exercise at H = 0).
#include <iostream>

#include "case.hpp"
#include "model/model.hpp"
#include "runtime/scenario.hpp"
#include "tasks/locality.hpp"
#include "tasks/workload.hpp"
#include "util/table.hpp"

int prtr::bench::cases::prefetch(obs::BenchReport& breport) {
  const auto registry = tasks::makeExtendedFunctions();  // 8 modules, 2 PRRs

  std::cout << "=== Ablation B1: prefetcher x workload locality (8 modules, "
               "2 PRRs, LRU, measured basis) ===\n\n";
  util::Table table{{"workload", "prepare", "H (measured)", "configs",
                     "S (simulated)", "S (model @ measured H)"}};
  for (const double bias : {0.0, 0.5, 0.9}) {
    for (const char* prepare : {"none", "queue", "markov"}) {
      util::Rng rng{911};
      const auto workload = tasks::makeMarkovWorkload(
          registry, 250, util::Bytes{20'000'000}, bias, rng);
      runtime::ScenarioOptions so;
      so.forceMiss = false;
      so.cachePolicy = runtime::CachePolicy::kLru;
      if (std::string{prepare} == "none") {
        so.prepare = runtime::PrepareSource::kNone;
      } else if (std::string{prepare} == "queue") {
        so.prepare = runtime::PrepareSource::kQueue;
      } else {
        so.prepare = runtime::PrepareSource::kPrefetcher;
        so.prefetcherKind = runtime::PrefetcherKind::kMarkov;
      }
      const auto result = runtime::runScenario(registry, workload, so);
      table.row()
          .cell("markov(p=" + util::formatDouble(bias, 2) + ")")
          .cell(prepare)
          .cell(util::formatDouble(result.prtr.hitRatio(), 3))
          .cell(result.prtr.configurations)
          .cell(util::formatDouble(result.speedup, 4))
          .cell(util::formatDouble(result.modelSpeedup, 4));
    }
  }
  table.print(std::cout);

  std::cout << "\n=== Ablation B2: cache policy comparison (phased workload, "
               "quad-PRR layout, PRTR only) ===\n\n";
  util::Table policies{{"policy", "H (measured)", "configs", "total"}};
  // Working set of 6 over 4 PRRs: eviction choice now matters, so the
  // policies separate (the dual-PRR layout always has exactly one victim
  // candidate while a task executes).
  util::Rng rng{77};
  // Tasks (~1.1 ms) shorter than a quad-PRR partial config (~15 ms), so
  // misses cannot hide behind execution and the totals separate too.
  const auto phased = tasks::makePhasedWorkload(
      registry, 300, util::Bytes{200'000}, 30, 6, rng);
  for (const runtime::CachePolicy policy : runtime::allCachePolicies()) {
    runtime::ScenarioOptions so;
    so.sides = runtime::ScenarioSides::kPrtrOnly;
    so.layout = xd1::Layout::kQuadPrr;
    so.forceMiss = false;
    so.prepare = runtime::PrepareSource::kQueue;
    so.cachePolicy = policy;
    const auto report = runtime::runScenario(registry, phased, so).prtr;
    policies.row()
        .cell(runtime::toString(policy))
        .cell(util::formatDouble(report.hitRatio(), 3))
        .cell(report.configurations)
        .cell(report.total.toString());
  }
  policies.print(std::cout);
  std::cout << "\nBelady (offline-optimal) bounds every online policy; the "
               "measured H values map directly onto the model's H axis "
               "(Figure 5).\n";

  // Mattson stack-distance analysis: the LRU hit-ratio curve for every
  // possible PRR count in one pass over the trace -- "how many PRRs do I
  // need for H >= target?" answered analytically.
  std::cout << "\n=== Ablation B3: Mattson LRU hit-ratio curve for the "
               "phased workload ===\n\n";
  util::Table mattson{{"PRR slots", "predicted LRU H"}};
  const auto curve =
      tasks::lruHitRatioCurve(phased, registry.size());
  for (std::size_t k = 0; k < curve.size(); ++k) {
    mattson.row()
        .cell(std::uint64_t{k + 1})
        .cell(util::formatDouble(curve[k], 4));
  }
  mattson.print(std::cout);
  const std::size_t needed = tasks::slotsForHitRatio(phased, 0.8);
  std::cout << "Slots needed for H >= 0.8: "
            << (needed ? std::to_string(needed) : std::string{"unattainable"})
            << " (exactness vs the simulated LRU cache is property-tested).\n";
  breport.table("prefetcher_locality", table);
  breport.table("cache_policies", policies);
  breport.table("mattson_curve", mattson);
  return 0;
}
