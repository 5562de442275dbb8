// Extension bench: multitasking / hardware virtualization (paper section 5
// outlook). Four applications with their own arrival processes share one
// blade; sweeping the offered load and the layout shows how PRR count and
// configuration caching shape latency under multiprogramming.
#include <iostream>

#include "case.hpp"
#include "runtime/multitask.hpp"
#include "util/table.hpp"

int prtr::bench::cases::multitask(obs::BenchReport& breport) {
  const auto registry = tasks::makeExtendedFunctions();

  auto makeApps = [&](std::size_t nApps, util::Time interArrival) {
    std::vector<runtime::AppSpec> apps;
    for (std::size_t a = 0; a < nApps; ++a) {
      runtime::AppSpec app;
      app.name = "app" + std::to_string(a);
      app.meanInterArrival = interArrival;
      for (int i = 0; i < 25; ++i) {
        app.workload.calls.push_back(
            tasks::TaskCall{a % registry.size(), util::Bytes{10'000'000}});
      }
      apps.push_back(std::move(app));
    }
    return apps;
  };

  std::cout << "=== Multitasking: 4 apps x 25 calls x 10 MB, arrival sweep "
               "===\n\n";
  util::Table table{{"inter-arrival", "layout", "H", "configs",
                     "mean latency", "mean queueing", "makespan",
                     "PRR util"}};
  for (const std::int64_t msArrival : {200, 60, 20, 5}) {
    for (const auto layout : {xd1::Layout::kDualPrr, xd1::Layout::kQuadPrr}) {
      runtime::MultitaskOptions options;
      options.layout = layout;
      const auto apps =
          makeApps(4, util::Time::milliseconds(msArrival));
      const runtime::MultitaskReport report =
          runtime::runMultitask(registry, apps, options);
      breport.metrics(report.metrics);

      double latency = 0.0;
      double queueing = 0.0;
      for (const auto& app : report.apps) {
        latency += app.latencySeconds.mean();
        queueing += app.queueingSeconds.mean();
      }
      latency /= static_cast<double>(report.apps.size());
      queueing /= static_cast<double>(report.apps.size());
      const std::size_t prrs = layout == xd1::Layout::kDualPrr ? 2 : 4;

      table.row()
          .cell(util::Time::milliseconds(msArrival).toString())
          .cell(toString(layout))
          .cell(util::formatDouble(report.hitRatio(), 3))
          .cell(report.configurations)
          .cell(util::Time::seconds(latency).toString())
          .cell(util::Time::seconds(queueing).toString())
          .cell(report.makespan.toString())
          .cell(util::formatDouble(report.prrUtilization(prrs), 3));
    }
  }
  table.print(std::cout);
  std::cout << "\nUnder light load the layouts tie; as the offered load "
               "rises, four distinct apps on two PRRs queue behind each "
               "other's regions while the quad layout gives every app a "
               "home -- the versatility argument of section 5, measured.\n";
  breport.table("multitask_sweep", table);
  return 0;
}
