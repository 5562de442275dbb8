#include "analysis/figures.hpp"

#include <cmath>

#include "config/icap_controller.hpp"
#include "exec/pool.hpp"
#include "model/bounds.hpp"
#include "model/model.hpp"
#include "obs/host.hpp"
#include "obs/trace_export.hpp"
#include "tasks/hwfunction.hpp"
#include "xd1/rtcore.hpp"

namespace prtr::analysis {
namespace {

std::string percentOf(std::uint32_t used, std::uint32_t capacity) {
  if (capacity == 0) return "-";
  const double pct = 100.0 * static_cast<double>(used) /
                     static_cast<double>(capacity);
  return util::formatDouble(pct, 2) + "%";
}

std::string resourceCell(std::uint32_t used, std::uint32_t capacity) {
  if (used == 0) return "NA";
  return std::to_string(used) + " (" + percentOf(used, capacity) + ")";
}

}  // namespace

std::vector<double> logGrid(double lo, double hi, std::size_t points) {
  std::vector<double> grid;
  grid.reserve(points);
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double frac =
        points > 1 ? static_cast<double>(i) / static_cast<double>(points - 1)
                   : 0.0;
    grid.push_back(std::pow(10.0, llo + (lhi - llo) * frac));
  }
  return grid;
}

util::Table makeTable1() {
  const auto device = fabric::makeXc2vp50();
  const fabric::ResourceVec cap = device.usableResources();
  util::Table table{{"Hardware Function", "LUTs", "FFs", "BRAM", "Freq (MHz)"}};

  const fabric::ResourceVec staticRegion = xd1::StaticDesign::staticRegionFootprint();
  table.row()
      .cell("Static Region")
      .cell(resourceCell(staticRegion.luts, cap.luts))
      .cell(resourceCell(staticRegion.ffs, cap.ffs))
      .cell(resourceCell(staticRegion.bram18, cap.bram18))
      .cell(util::formatDouble(xd1::StaticDesign::fabricClock().toMegahertz(), 3));

  const fabric::ResourceVec prc = config::IcapController::resourceFootprint();
  table.row()
      .cell("PR Controller")
      .cell(resourceCell(prc.luts, cap.luts))
      .cell(resourceCell(prc.ffs, cap.ffs))
      .cell(resourceCell(prc.bram18, cap.bram18))
      .cell(util::formatDouble(config::IcapController::fabricClock().toMegahertz(), 3));

  const auto registry = tasks::makePaperFunctions();
  for (const tasks::HwFunction& fn : registry.all()) {
    std::string label = fn.name;
    label[0] = static_cast<char>(std::toupper(label[0]));
    table.row()
        .cell(label + " Filter")
        .cell(resourceCell(fn.resources.luts, cap.luts))
        .cell(resourceCell(fn.resources.ffs, cap.ffs))
        .cell(resourceCell(fn.resources.bram18, cap.bram18))
        .cell(util::formatDouble(fn.fabricClock.toMegahertz(), 3));
  }
  return table;
}

util::Table makeTable2() {
  util::Table table{{"Configuration", "Bitstream (B)", "Paper (B)",
                     "Est. (ms)", "Paper est.", "Meas. (ms)", "Paper meas.",
                     "X_PRTR est.", "X_PRTR meas."}};

  struct Row {
    const char* name;
    xd1::Layout layout;
    bool full;
    double paperBytes;
    double paperEstMs;
    double paperMeasMs;
  };
  const Row rows[] = {
      {"Full Configuration", xd1::Layout::kSinglePrr, true, 2381764, 36.09,
       1678.04, },
      {"Single PRR", xd1::Layout::kSinglePrr, false, 887784, 13.45, 43.48},
      {"Dual PRR", xd1::Layout::kDualPrr, false, 404168, 6.12, 19.77},
  };

  // Reference full-configuration times for the normalization columns.
  sim::Simulator refSim;
  const xd1::Node refNode{refSim};
  const model::ConfigTimes refTimes = model::configTimes(refNode);

  for (const Row& row : rows) {
    sim::Simulator sim;
    xd1::NodeConfig cfg;
    cfg.layout = row.layout;
    const xd1::Node node{sim, cfg};
    const model::ConfigTimes times = model::configTimes(node);

    const util::Bytes bytes = row.full ? times.fullBytes : times.partialBytes;
    const util::Time est = row.full ? times.fullEstimated : times.partialEstimated;
    const util::Time meas = row.full ? times.fullMeasured : times.partialMeasured;
    const double xEst = est.toSeconds() / refTimes.fullEstimated.toSeconds();
    const double xMeas = meas.toSeconds() / refTimes.fullMeasured.toSeconds();

    table.row()
        .cell(row.name)
        .cell(bytes.count())
        .cell(util::formatDouble(row.paperBytes, 8))
        .cell(util::formatDouble(est.toMilliseconds(), 4))
        .cell(util::formatDouble(row.paperEstMs, 4))
        .cell(util::formatDouble(meas.toMilliseconds(), 6))
        .cell(util::formatDouble(row.paperMeasMs, 6))
        .cell(util::formatDouble(xEst, 3))
        .cell(util::formatDouble(xMeas, 3));
  }
  return table;
}

std::vector<Fig9Point> makeFig9(const Fig9Options& options) {
  // Host timings (obs/host.hpp): the whole sweep and every point.
  const obs::HostTimer sweepTimer{"host.fig9.sweep_ns"};
  const auto grid = logGrid(options.xTaskLo, options.xTaskHi, options.points);
  const auto registry = tasks::makePaperFunctions();

  // Per-point PRTR timelines and metrics, collected only when a trace or
  // metrics are requested. Stored by index, so both fill deterministically.
  std::vector<sim::Timeline> pointTimelines(
      options.trace != nullptr ? grid.size() : 0);
  std::vector<obs::MetricsSnapshot> pointMetrics(
      options.metrics != nullptr ? grid.size() : 0);

  // Reference node for calibration queries (no simulation happens on it).
  sim::Simulator refSim;
  xd1::NodeConfig refCfg;
  refCfg.layout = xd1::Layout::kDualPrr;
  const xd1::Node refNode{refSim, refCfg};
  const model::ConfigTimes times = model::configTimes(refNode);
  const util::Time tFrtr = times.full(options.basis);
  const tasks::HwFunction& fn = registry.byName("median");

  auto points = exec::parallelMap(
      grid,
      [&](const double& xTask) {
        const obs::HostTimer pointTimer{"host.fig9.point_ns"};
        // parallelMap passes a reference into `grid`, so the element address
        // recovers this point's index for the by-index slots.
        const std::size_t index =
            static_cast<std::size_t>(&xTask - grid.data());
        Fig9Point point;
        point.xTask = xTask;
        point.dataBytes = model::bytesForTaskTime(
            refNode, fn, util::Time::seconds(xTask * tFrtr.toSeconds()));

        // The paper's experimental setting: dual PRR, always reconfigure
        // (H = 0), queue look-ahead so configurations overlap execution.
        runtime::ScenarioOptions so;
        so.layout = xd1::Layout::kDualPrr;
        so.basis = options.basis;
        so.tControl = util::Time::microseconds(10);
        so.forceMiss = true;
        so.prepare = runtime::PrepareSource::kQueue;
        so.artifacts = options.artifacts;
        if (options.trace != nullptr) {
          so.hooks.timeline = &pointTimelines[index];
        }
        const auto workload = tasks::makeRoundRobinWorkload(
            registry, options.nCalls, point.dataBytes);
        runtime::ScenarioResult result =
            runtime::runScenario(registry, workload, so);
        if (options.metrics != nullptr) {
          result.metrics.gauges.clear();
          pointMetrics[index] = std::move(result.metrics);
        }

        point.simSpeedup = result.speedup;
        point.modelSpeedup = result.modelSpeedup;
        model::Params asymptotic = result.modelParams;
        point.modelAsymptote = model::asymptoticSpeedup(asymptotic);
        return point;
      },
      exec::ForOptions{.threads = options.threads});

  if (options.trace != nullptr) {
    for (std::size_t i = 0; i < pointTimelines.size(); ++i) {
      if (pointTimelines[i].empty()) continue;
      const std::string process =
          "fig9[" + std::to_string(i) + "] x=" +
          util::formatDouble(points[i].xTask, 4);
      options.trace->add(process, pointTimelines[i]);
      options.trace->addCounters(
          process, obs::sampleTimelineCounters(pointTimelines[i]));
    }
  }
  if (options.metrics != nullptr) {
    for (obs::MetricsSnapshot& m : pointMetrics) {
      options.metrics->merge(std::move(m));
    }
    options.metrics->counters["fig9.points_computed"] += grid.size();
  }
  return points;
}

util::Table fig9Table(const std::vector<Fig9Point>& points) {
  util::Table table{{"X_task", "data", "S (simulated)", "S (model, eq.6)",
                     "S_inf (eq.7)"}};
  for (const Fig9Point& p : points) {
    table.row()
        .cell(util::formatDouble(p.xTask, 4))
        .cell(p.dataBytes.toString())
        .cell(util::formatDouble(p.simSpeedup, 4))
        .cell(util::formatDouble(p.modelSpeedup, 4))
        .cell(util::formatDouble(p.modelAsymptote, 4));
  }
  return table;
}

std::string fig9Plot(const std::vector<Fig9Point>& points,
                     const std::string& title) {
  util::Series sim{"simulated", {}, {}};
  util::Series modelSeries{"model eq.6", {}, {}};
  util::Series asymptote{"model eq.7 (n->inf)", {}, {}};
  for (const Fig9Point& p : points) {
    sim.x.push_back(p.xTask);
    sim.y.push_back(p.simSpeedup);
    modelSeries.x.push_back(p.xTask);
    modelSeries.y.push_back(p.modelSpeedup);
    asymptote.x.push_back(p.xTask);
    asymptote.y.push_back(p.modelAsymptote);
  }
  util::PlotOptions po;
  po.logX = true;
  po.logY = true;
  po.xLabel = "X_task (task time / full configuration time)";
  po.yLabel = "speedup S over FRTR";
  po.title = title;
  return util::renderAsciiPlot({sim, modelSeries, asymptote}, po);
}

std::vector<util::Series> makeFig5Series(double xPrtr,
                                         const std::vector<double>& hitRatios,
                                         std::size_t points, double xTaskLo,
                                         double xTaskHi, std::size_t threads) {
  const auto grid = logGrid(xTaskLo, xTaskHi, points);
  return exec::parallelMap(
      hitRatios,
      [&](double h) {
        util::Series s{"H=" + util::formatDouble(h, 3), {}, {}};
        for (const double xTask : grid) {
          s.x.push_back(xTask);
          s.y.push_back(model::idealAsymptote(xTask, xPrtr, h));
        }
        return s;
      },
      exec::ForOptions{.threads = threads});
}

}  // namespace prtr::analysis
