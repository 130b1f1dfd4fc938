// Fig 12: average speedup of the evaluated systems (including the
// LosaTM-SAFU comparator) over CGL, per thread count.
//
// Expected shape (paper): LockillerTM above LosaTM-SAFU on average (the
// insts-based priority covers friendly fire better than progression-based,
// and HTMLock resolves the unfair-competition scenario completely); the
// paper quotes 1.86x over Baseline and 1.57x over LosaTM on average.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto workloads = wl::stampNames();
  const auto systems = cfg::evaluatedSystems();
  const auto results = cfg::sweepSystems(cfg::MachineParams::typical(), systems,
                                         workloads, paperThreadCounts());
  reportFailures(results);
  std::printf("Fig 12: geo-mean speedup over CGL across all STAMP analogs\n\n");
  std::vector<std::string> header{"threads"};
  for (const auto& s : systems) {
    if (s.name != "CGL") header.push_back(s.name);
  }
  stats::Table t(header);
  for (unsigned th : paperThreadCounts()) {
    std::vector<std::string> row{std::to_string(th)};
    for (const auto& s : systems) {
      if (s.name == "CGL") continue;
      row.push_back(stats::Table::fixed(avgSpeedupVsCgl(results, s.name, workloads, th), 2));
    }
    t.addRow(row);
  }
  std::printf("%s\n", t.str().c_str());

  // Paper-style headline ratios, averaged over all thread counts.
  auto overall = [&](const std::string& sys) {
    double p = 1.0;
    for (unsigned th : paperThreadCounts()) p *= avgSpeedupVsCgl(results, sys, workloads, th);
    return std::pow(p, 1.0 / paperThreadCounts().size());
  };
  const double lk = overall("LockillerTM");
  const double base = overall("Baseline");
  const double losa = overall("LosaTM-SAFU");
  std::printf("LockillerTM vs best-effort HTM: %.2fx   vs LosaTM-SAFU: %.2fx\n",
              lk / base, lk / losa);
  return 0;
}
