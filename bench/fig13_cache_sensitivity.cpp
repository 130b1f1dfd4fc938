// Fig 13: sensitivity to the cache configuration — small (8KB L1 / 1MB LLC)
// and large (128KB L1 / 32MB LLC) — average speedup over CGL per thread
// count.
//
// Expected shape (paper): LockillerTM's average speedup beats both CGL and
// the requester-win baseline in both configurations; the small configuration
// stresses the overflow machinery (switchingMode + HTMLock signatures).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto workloads = wl::stampNames();
  const std::vector<std::string> systems{"Baseline", "LosaTM-SAFU", "Lockiller-RWI",
                                         "LockillerTM"};
  for (const auto& machine :
       {cfg::MachineParams::smallCache(), cfg::MachineParams::largeCache()}) {
    const auto results = cfg::sweepSystems(machine, systemsByName(systems),
                                           workloads, paperThreadCounts());
    // CGL reference runs.
    const auto cgl = cfg::sweepSystems(machine, systemsByName({"CGL"}), workloads,
                                       paperThreadCounts());
    std::vector<cfg::RunResult> all = results;
    all.insert(all.end(), cgl.begin(), cgl.end());
    reportFailures(all);
    std::printf("Fig 13 [%s]: geo-mean speedup over CGL\n\n", machine.name.c_str());
    std::vector<std::string> header{"threads"};
    for (const auto& s : systems) header.push_back(s);
    stats::Table t(header);
    for (unsigned th : paperThreadCounts()) {
      std::vector<std::string> row{std::to_string(th)};
      for (const auto& s : systems) {
        row.push_back(stats::Table::fixed(avgSpeedupVsCgl(all, s, workloads, th), 2));
      }
      t.addRow(row);
    }
    std::printf("%s\n", t.str().c_str());
  }
  return 0;
}
