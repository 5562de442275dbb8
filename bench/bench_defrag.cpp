// Extension bench: dynamic region allocation with defragmentation
// (ref [24]). Small modules churn on the XC2VP50's 34-column CLB stretch;
// every 25th step a large (16-column) module asks for space. External
// fragmentation is what kills those large requests, and defragmentation is
// what rescues them -- at the price of relocation (partial reconfig) time.
#include <iostream>

#include "case.hpp"
#include "config/port.hpp"
#include "fabric/allocator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int prtr::bench::cases::defrag(obs::BenchReport& breport) {
  const fabric::Device device = fabric::makeXc2vp50();
  const config::Port selectMap = config::makeSelectMap();

  std::cout << "=== Defragmentation ablation: small-module churn + periodic "
               "16-column requests ===\n\n";
  util::Table table{{"policy", "defrag", "large asks", "large failures",
                     "small failures", "moves", "move cost",
                     "mean fragmentation"}};

  for (const auto policy :
       {fabric::FitPolicy::kFirstFit, fabric::FitPolicy::kBestFit}) {
    for (const bool defragBeforeLarge : {false, true}) {
      fabric::ColumnAllocator alloc{device, 16, 34};
      util::Rng rng{9000};
      std::vector<std::uint64_t> ids;
      std::size_t largeAsks = 0;
      std::size_t largeFailures = 0;
      std::size_t smallFailures = 0;
      std::size_t moveCount = 0;
      util::Time moveTime;
      double fragSum = 0.0;
      const int steps = 5000;
      for (int step = 0; step < steps; ++step) {
        if (step % 25 == 24) {
          // The large tenant arrives. Optionally compact first.
          if (defragBeforeLarge) {
            for (const fabric::Move& move : alloc.defragment()) {
              ++moveCount;
              moveTime += selectMap.transferTime(alloc.moveCost(move));
            }
          }
          ++largeAsks;
          if (const auto got = alloc.allocate(16, policy, "large")) {
            alloc.release(got->id);  // it checks in, runs, checks out
          } else {
            ++largeFailures;
          }
        } else if (!ids.empty() && rng.chance(0.52)) {
          const std::size_t pick = rng.below(ids.size());
          alloc.release(ids[pick]);
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          const auto width = static_cast<std::size_t>(rng.range(2, 6));
          if (const auto got = alloc.allocate(width, policy, "m")) {
            ids.push_back(got->id);
          } else {
            ++smallFailures;
          }
        }
        fragSum += alloc.fragmentation();
      }
      table.row()
          .cell(toString(policy))
          .cell(defragBeforeLarge ? "before large asks" : "never")
          .cell(std::uint64_t{largeAsks})
          .cell(std::uint64_t{largeFailures})
          .cell(std::uint64_t{smallFailures})
          .cell(std::uint64_t{moveCount})
          .cell(moveTime.toString())
          .cell(util::formatDouble(fragSum / steps, 4));
    }
  }
  table.print(std::cout);
  std::cout << "\nWithout compaction the 16-column tenant starves behind "
               "fragmented free space; defragmenting on demand rescues it "
               "for a bounded relocation budget (each move = one partial "
               "reconfiguration of the module's width).\n";
  breport.table("defrag", table);
  return 0;
}
