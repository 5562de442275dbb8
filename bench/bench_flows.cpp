// Reproduces the section 2.2 flow comparison: a module-based flow needs n
// fixed-size bitstreams per region, a difference-based flow needs n(n-1)
// variable-size bitstreams covering every module-to-module transition.
#include <iostream>

#include "bitstream/library.hpp"
#include "bitstream/relocate.hpp"
#include "case.hpp"
#include "fabric/floorplan.hpp"
#include "tasks/hwfunction.hpp"
#include "util/table.hpp"

int prtr::bench::cases::flows(obs::BenchReport& breport) {
  const auto registry = tasks::makeExtendedFunctions();
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const auto specs =
      registry.moduleSpecs(plan.prr(0).resources(plan.device()));

  util::Table table{{"modules n", "module-based streams", "module-based total",
                     "diff-based streams", "diff total", "diff min..max"}};
  for (std::size_t n = 2; n <= registry.size(); n += 2) {
    std::vector<bitstream::Library::ModuleSpec> subset(specs.begin(),
                                                       specs.begin() + static_cast<std::ptrdiff_t>(n));
    bitstream::Library lib{plan, subset};
    const auto moduleStats = lib.buildModuleFlow();
    const auto diffStats = lib.buildDifferenceFlow();
    table.row()
        .cell(std::uint64_t{n})
        .cell(std::uint64_t{moduleStats.streamCount})
        .cell(moduleStats.totalBytes.toString())
        .cell(std::uint64_t{diffStats.streamCount})
        .cell(diffStats.totalBytes.toString())
        .cell(diffStats.minBytes.toString() + " .. " +
              diffStats.maxBytes.toString());
  }

  std::cout << "=== Section 2.2: module-based vs difference-based partial "
               "bitstream flows (2 PRRs) ===\n\n";
  table.print(std::cout);
  std::cout << "\nModule-based: n fixed-size streams per region "
               "(n*prrCount total).\n"
               "Difference-based: n(n-1) variable-size streams per region -- "
               "the development-cost explosion the paper warns about in "
               "section 5.\n";

  // Relocation (ref [24]) on the quad-PRR layout: the four regions share
  // one column signature, so one stream per module suffices.
  const fabric::Floorplan quad = fabric::makeQuadPrrLayout();
  const util::Bytes streamBytes =
      quad.prr(0).partialBitstreamBytes(quad.device());
  std::cout << "\n=== Relocation (quad-PRR layout, compatible regions) ===\n";
  util::Table reloc{{"modules n", "per-(module,PRR) storage",
                     "relocatable storage", "saving"}};
  for (std::size_t n = 2; n <= registry.size(); n += 2) {
    const auto savings = bitstream::relocationSavings(streamBytes, n, 4);
    reloc.row()
        .cell(std::uint64_t{n})
        .cell(savings.withoutRelocation.toString())
        .cell(savings.withRelocation.toString())
        .cell(util::formatDouble(savings.ratio(), 3) + "x");
  }
  reloc.print(std::cout);
  std::cout << "Note: the paper's own dual-PRR layout has *mirrored* edge "
               "regions, so relocation is illegal there -- verified by the "
               "column-signature check.\n";
  breport.table("flow_comparison", table);
  breport.table("relocation_savings", reloc);
  return 0;
}
