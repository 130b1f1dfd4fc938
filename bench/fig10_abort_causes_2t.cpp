// Fig 10: percentage of transaction-abort causes under 2 threads for
// Baseline, Lockiller-RWIL and LockillerTM.
//
// Expected shape (paper): HTMLock eliminates `mutex` aborts entirely;
// switchingMode slashes `of` (capacity overflow) aborts; `fault` aborts
// remain (the paper does not switch on exceptions); kmeans+ has a 100%
// commit rate under HTMLock, so its RWIL/LockillerTM columns are (nearly)
// empty.
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
  std::printf("Fig 10: abort causes (%% of aborts) at 2 threads\n\n");
  stats::Table t({"workload", "system", "aborts", "mc", "lock", "mutex", "non_tran",
                  "of", "fault", "commit rate"});
  for (const auto& w : workloads) {
    for (const auto& s : systems) {
      const auto* r = cfg::findResult(results, s, w, 2);
      if (r == nullptr) continue;
      const double total = static_cast<double>(r->aborts());
      auto pct = [&](AbortCause c) {
        if (total == 0) return std::string("-");
        return stats::Table::pct(static_cast<double>(r->abortCount(c)) / total, 1);
      };
      t.addRow({w, s, std::to_string(r->aborts()), pct(AbortCause::MemConflict),
                pct(AbortCause::LockConflict), pct(AbortCause::Mutex),
                pct(AbortCause::NonTran), pct(AbortCause::Overflow),
                pct(AbortCause::Fault), stats::Table::pct(r->commitRate(), 1)});
    }
  }
  std::printf("%s\n", t.str().c_str());
  return 0;
}
