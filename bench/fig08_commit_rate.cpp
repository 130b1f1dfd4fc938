// Fig 8: average transaction commit rate of the HTM systems equipped with
// the recovery mechanism (RAI / RRI / RWI) vs the requester-win baseline,
// across thread counts.
//
// Expected shape (paper): the recovery mechanism + insts-based priority
// raise the average commit rate substantially over the baseline (the paper
// quotes 1.4x / 1.69x / 1.63x for the three reject actions).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto workloads = wl::stampNames();
  const std::vector<std::string> systems{"Baseline", "Lockiller-RAI",
                                         "Lockiller-RRI", "Lockiller-RWI"};
  const auto results = cfg::sweepSystems(cfg::MachineParams::typical(),
                                         systemsByName(systems), workloads,
                                         paperThreadCounts());
  reportFailures(results);
  std::printf("Fig 8: average transaction commit rate (all STAMP analogs)\n\n");
  std::vector<std::string> header{"threads"};
  for (const auto& s : systems) header.push_back(s);
  header.push_back("RWI/Baseline");
  stats::Table t(header);
  for (unsigned th : paperThreadCounts()) {
    std::vector<std::string> row{std::to_string(th)};
    double base = 0.0, rwi = 0.0;
    for (const auto& s : systems) {
      double sum = 0.0;
      int n = 0;
      for (const auto& w : workloads) {
        const auto* r = cfg::findResult(results, s, w, th);
        // Runs with no speculative attempts report an absent rate; averaging
        // them in (as the old 1.0 default did) inflated the figure.
        if (r == nullptr) continue;
        if (const auto rate = r->commitRate(); rate.has_value()) {
          sum += *rate;
          ++n;
        }
      }
      const double avg = n != 0 ? sum / n : 0.0;
      if (s == "Baseline") base = avg;
      if (s == "Lockiller-RWI") rwi = avg;
      row.push_back(stats::Table::pct(avg, 1));
    }
    row.push_back(base > 0 ? stats::Table::fixed(rwi / base, 2) + "x" : "-");
    t.addRow(row);
  }
  std::printf("%s\n", t.str().c_str());
  return 0;
}
