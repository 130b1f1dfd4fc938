// Fig 11: execution-time breakdown + commit rate at 2 threads, with the
// `switchLock` category (whole transactions that completed after proactively
// switching to HTMLock mode).
//
// Expected shape (paper): LockillerTM turns part of `aborted`+`lock` time
// into `switchLock` time on the overflow-prone workloads (labyrinth, yada),
// raising commit rates and cutting total time.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto workloads = wl::stampNames();
  const std::vector<std::string> systems{"Baseline", "Lockiller-RWIL", "LockillerTM"};
  const auto results = cfg::sweepSystems(cfg::MachineParams::typical(),
                                         systemsByName(systems), workloads, {2});
  reportFailures(results);
  std::printf(
      "Fig 11: execution-time breakdown + commit rate, 2 threads "
      "(time normalized to Baseline)\n\n");
  printBreakdown(results, systems, workloads, 2, /*withSwitchLock=*/true);

  // Headline: how many speculative attempts were rescued by switching.
  stats::Table t({"workload", "switch attempts", "grants", "stl commits"});
  for (const auto& w : workloads) {
    const auto* r = cfg::findResult(results, "LockillerTM", w, 2);
    if (r == nullptr) continue;
    t.addRow({w, std::to_string(r->switchAttempts()),
              std::to_string(r->switchGrants()), std::to_string(r->stlCommits())});
  }
  std::printf("LockillerTM switchingMode activity @2t\n%s\n", t.str().c_str());
  return 0;
}
