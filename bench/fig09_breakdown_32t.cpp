// Fig 9: execution-time breakdown and transaction commit rate under
// 32 threads for Baseline, Lockiller-RWI and Lockiller-RWIL.
//
// Expected shape (paper): RWIL slashes `waitlock` on genome / vacation+- /
// intruder (lock transactions and HTM transactions run concurrently) and
// lifts commit rates; labyrinth and yada stay fallback-dominated.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto workloads = wl::stampNames();
  const std::vector<std::string> systems{"Baseline", "Lockiller-RWI",
                                         "Lockiller-RWIL"};
  const auto results = cfg::sweepSystems(cfg::MachineParams::typical(),
                                         systemsByName(systems), workloads, {32});
  reportFailures(results);
  std::printf(
      "Fig 9: execution-time breakdown + commit rate, 32 threads "
      "(time normalized to Baseline)\n\n");
  printBreakdown(results, systems, workloads, 32, /*withSwitchLock=*/false);
  return 0;
}
