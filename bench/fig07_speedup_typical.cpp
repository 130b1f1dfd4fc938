// Fig 7: speedup of every evaluated system relative to coarse-grained
// locking at the same thread count, typical cache size, threads 2..32,
// across all STAMP analogs.
//
// Expected shape (paper): every Lockiller variant above 1 for every workload
// except yada; recovery+insts-based priority already lifts the baseline
// substantially; HTMLock helps most at high thread counts.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto workloads = wl::stampNames();
  std::vector<std::string> systems;
  for (const auto& s : cfg::evaluatedSystems()) systems.push_back(s.name);

  const auto results =
      cfg::sweepSystems(cfg::MachineParams::typical(), cfg::evaluatedSystems(),
                        workloads, paperThreadCounts());
  reportFailures(results);
  std::printf(
      "Fig 7: speedup over CGL, typical cache (32KB L1 / 8MB LLC), "
      "threads 2-32\n\n");
  std::vector<std::string> nonCgl(systems.begin() + 1, systems.end());
  printSpeedupTables(results, nonCgl, workloads, paperThreadCounts());
  return 0;
}
