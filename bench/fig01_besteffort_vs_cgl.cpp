// Fig 1: speedup of requester-win best-effort HTM with respect to the
// coarse-grained locking scheme under the STAMP analogs, two threads.
//
// Expected shape (paper): clearly above 1 for the friendly workloads
// (genome, kmeans-, ssca2, vacation+-), below 1 for the pathological ones
// (intruder, labyrinth, yada) — the motivation for LockillerTM.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto workloads = wl::stampNames();
  const auto results = cfg::sweepSystems(cfg::MachineParams::typical(),
                                         systemsByName({"CGL", "Baseline"}),
                                         workloads, {2});
  reportFailures(results);
  std::printf("Fig 1: requester-win best-effort HTM vs CGL, 2 threads\n\n");
  stats::Table t({"workload", "speedup vs CGL", "commit rate", ""});
  for (const auto& w : workloads) {
    const double s = speedupVsCgl(results, "Baseline", w, 2);
    const auto* r = cfg::findResult(results, "Baseline", w, 2);
    t.addRow({w, stats::Table::fixed(s, 2),
              r != nullptr ? stats::Table::pct(r->commitRate(), 1) : "-",
              stats::bar(s / 2.0)});
  }
  t.addRow({"geo-mean",
            stats::Table::fixed(avgSpeedupVsCgl(results, "Baseline", workloads, 2), 2),
            "", ""});
  std::printf("%s\n", t.str().c_str());
  return 0;
}
