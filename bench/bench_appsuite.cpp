// Extension bench: the application suite. The paper's introduction argues
// PRTR from application studies (remote sensing, hyperspectral imaging,
// target recognition); this bench runs structurally faithful synthetic
// versions of those workloads end to end under FRTR and PRTR, with and
// without prefetching, on the measured-basis XD1.
#include <iostream>

#include "case.hpp"
#include "runtime/scenario.hpp"
#include "tasks/appsuite.hpp"
#include "util/table.hpp"

int prtr::bench::cases::appsuite(obs::BenchReport& breport) {
  const auto registry = tasks::makeExtendedFunctions();
  util::Rng rng{20260705};
  const auto suite = tasks::makeApplicationSuite(registry, rng);

  std::cout << "=== Application suite on the measured-basis XD1 (dual PRR) "
               "===\n\n";
  util::Table table{{"application", "calls", "payload", "FRTR", "PRTR (LRU)",
                     "S", "H", "S model"}};
  for (const tasks::Application& app : suite) {
    runtime::ScenarioOptions so;
    so.forceMiss = false;
    so.prepare = runtime::PrepareSource::kQueue;
    const auto result = runtime::runScenario(registry, app.workload, so);
    breport.metrics(result.metrics);
    table.row()
        .cell(app.name)
        .cell(app.workload.callCount())
        .cell(app.workload.totalBytes().toString())
        .cell(result.frtr.total.toString())
        .cell(result.prtr.total.toString())
        .cell(util::formatDouble(result.speedup, 4))
        .cell(util::formatDouble(result.prtr.hitRatio(), 3))
        .cell(util::formatDouble(result.modelSpeedup, 4));
  }
  table.print(std::cout);

  std::cout << "\n=== Same suite on the quad-PRR layout (virtualized "
               "library) ===\n\n";
  util::Table quad{{"application", "PRTR (quad)", "S", "H", "configs"}};
  for (const tasks::Application& app : suite) {
    runtime::ScenarioOptions so;
    so.layout = xd1::Layout::kQuadPrr;
    so.forceMiss = false;
    so.prepare = runtime::PrepareSource::kQueue;
    const auto result = runtime::runScenario(registry, app.workload, so);
    quad.row()
        .cell(app.name)
        .cell(result.prtr.total.toString())
        .cell(util::formatDouble(result.speedup, 4))
        .cell(util::formatDouble(result.prtr.hitRatio(), 3))
        .cell(result.prtr.configurations);
  }
  quad.print(std::cout);
  std::cout << "\nPipelined applications have strong module locality, so "
               "PRTR's configuration cache turns most calls into hits; the "
               "branching ATR workload reconfigures most.\n";
  breport.table("appsuite_dual", table);
  breport.table("appsuite_quad", quad);
  return 0;
}
