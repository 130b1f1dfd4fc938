// Table III (extension): database-shaped traffic under every TM backend,
// with the tail-latency view — commit-latency p50/p99/p999 in cycles next
// to the throughput numbers. This is the bench behind the `table3-dbtraffic`
// sweep preset, and like every other figure it runs its grid through
// cfg::sweepSystems.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads/db_traffic.hpp"

int main() {
  using namespace lktm;
  using namespace lktm::bench;
  const auto& workloads = wl::dbWorkloadNames();
  const std::vector<std::string> systems{"LockillerTM", "CGL", "TL2-STM",
                                         "Hybrid-TM"};
  constexpr unsigned kThreads = 8;
  const auto results = cfg::sweepSystems(cfg::MachineParams::typical(),
                                         systemsByName(systems), workloads, {kThreads});
  reportFailures(results);
  std::printf(
      "Table III: database traffic, %u threads — commit latency percentiles\n"
      "(cycles from first critical-section attempt to commit, spanning "
      "retries)\n\n",
      kThreads);
  stats::Table t({"workload", "system", "cycles", "commit rate", "aborts",
                  "p50", "p99", "p999"});
  for (const auto& w : workloads) {
    for (const auto& s : systems) {
      const auto* r = cfg::findResult(results, s, w, kThreads);
      if (r == nullptr) continue;
      t.addRow({w, s, std::to_string(r->cycles),
                stats::Table::pct(r->commitRate(), 1),
                std::to_string(r->aborts()),
                std::to_string(r->commitLatencyPercentile(500)),
                std::to_string(r->commitLatencyPercentile(990)),
                std::to_string(r->commitLatencyPercentile(999))});
    }
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("geo-mean speedup vs CGL at %u threads:\n", kThreads);
  stats::Table g({"system", "speedup"});
  for (const auto& s : systems) {
    g.addRow({s, stats::Table::fixed(
                     avgSpeedupVsCgl(results, s, workloads, kThreads), 2)});
  }
  std::printf("%s\n", g.str().c_str());
  return 0;
}
