// The paper's evaluation in one program: Tables I-III and Figs 1 and 7-13,
// printed to stdout in paper order, then the design-choice ablations beyond
// the paper. The simulated cells are the "figures" sweep preset
// (cfg::presetManifest), run once in memory by runManifest with its default
// runSpec runner; every table and figure below is a view of that one result
// set. The output is pinned in bench/product/paper_figures.txt and discussed
// in EXPERIMENTS.md.
//
// Exit status 1 when any cell failed (each is named on stderr) or when a
// renderer asks for a cell the grid lacks.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/systems.hpp"
#include "stats/report.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace lktm;

const std::vector<unsigned>& kThreads = cfg::kPaperThreadCounts;

/// The cells of one machine. Fig 13's cells share system, workload and
/// thread count with the typical ones, so every lookup is per machine.
class Grid {
 public:
  Grid(const std::vector<cfg::RunResult>& results, std::string machine)
      : machine_(std::move(machine)) {
    for (const auto& r : results) {
      if (r.machine == machine_) cells_.push_back(&r);
    }
  }

  const std::string& machine() const { return machine_; }

  const cfg::RunResult& at(const std::string& system, const std::string& workload,
                           unsigned threads) const {
    for (const cfg::RunResult* r : cells_) {
      if (r->system == system && r->workload == workload && r->threads == threads) {
        return *r;
      }
    }
    throw std::out_of_range("the figures grid has no cell " + system + "/" + workload +
                            "/" + machine_ + "@" + std::to_string(threads));
  }

  /// Speedup of `system` over the CGL run of the same cell.
  double speedupVsCgl(const std::string& system, const std::string& workload,
                      unsigned threads) const {
    return static_cast<double>(at("CGL", workload, threads).cycles) /
           static_cast<double>(at(system, workload, threads).cycles);
  }

  /// Geometric mean of per-workload speedups vs CGL.
  double avgSpeedupVsCgl(const std::string& system,
                         const std::vector<std::string>& workloads,
                         unsigned threads) const {
    double product = 1.0;
    for (const auto& w : workloads) product *= speedupVsCgl(system, w, threads);
    return std::pow(product, 1.0 / static_cast<double>(workloads.size()));
  }

 private:
  std::string machine_;
  std::vector<const cfg::RunResult*> cells_;
};

std::vector<std::string> nonCglSystems() {
  std::vector<std::string> out;
  for (const auto& s : cfg::evaluatedSystems()) {
    if (s.name != "CGL") out.push_back(s.name);
  }
  return out;
}

/// Normalized execution-time breakdown rows (Figs 9/11), time relative to
/// the first system.
void printBreakdown(const Grid& grid, const std::vector<std::string>& systems,
                    const std::vector<std::string>& workloads, unsigned threads,
                    bool withSwitchLock) {
  std::vector<std::string> header{"workload", "system", "htm", "aborted", "lock"};
  if (withSwitchLock) header.push_back("switchLock");
  header.insert(header.end(), {"non_tran", "waitlock", "rollback", "commit rate",
                               "norm. time"});
  stats::Table table(header);
  for (const auto& w : workloads) {
    const auto& ref = grid.at(systems.front(), w, threads);
    for (const auto& s : systems) {
      const auto& r = grid.at(s, w, threads);
      std::vector<std::string> row{w, s};
      auto pct = [&](TimeCat c) {
        return stats::Table::pct(r.breakdown().fraction(c), 1);
      };
      row.push_back(pct(TimeCat::Htm));
      row.push_back(pct(TimeCat::Aborted));
      row.push_back(pct(TimeCat::Lock));
      if (withSwitchLock) row.push_back(pct(TimeCat::SwitchLock));
      row.push_back(pct(TimeCat::NonTran));
      row.push_back(pct(TimeCat::WaitLock));
      row.push_back(pct(TimeCat::Rollback));
      row.push_back(stats::Table::pct(r.commitRate(), 1));
      row.push_back(
          stats::Table::fixed(static_cast<double>(r.cycles) / ref.cycles, 2));
      table.addRow(row);
    }
  }
  std::printf("%s\n", table.str().c_str());
}

// Table I: system model parameters of the simulated 32-core tiled CMP.
void table1() {
  const auto m = cfg::MachineParams::typical();
  std::printf("TABLE I. System Model Parameters (reproduction)\n\n");
  stats::Table t({"Component Parameter", "Value"});
  t.addRow({"Number of Cores", std::to_string(m.numCores)});
  t.addRow({"Frequency", "2 GHz (1 cycle = 0.5 ns, timing in cycles)"});
  t.addRow({"Core Detail", "In-Order, Single-issue, bytecode ISA w/ TME-style HTM"});
  t.addRow({"Cache Line Size", std::to_string(kLineBytes) + " bytes"});
  t.addRow({"L1 I&D caches", "Private, " + std::to_string(m.l1.sizeBytes / 1024) +
                                 "KB, " + std::to_string(m.l1.assoc) + "-way, " +
                                 std::to_string(m.protocol.l1HitLatency) +
                                 "-cycle hit latency"});
  t.addRow({"L2 cache", "Shared, unified, " + std::to_string(m.llcBytes / (1024 * 1024)) +
                            "MB, " + std::to_string(m.protocol.llcLatency) +
                            "-cycle hit latency"});
  t.addRow({"Memory", "8GB (sparse), " + std::to_string(m.protocol.memLatency) +
                          "-cycle latency"});
  t.addRow({"Coherence protocol", "MESI, directory-based (MESI-Two-Level-HTM)"});
  t.addRow({"Topology and Routing",
            "2-D mesh (" + std::to_string(m.mesh.rows) + " x " +
                std::to_string(m.mesh.cols) + "), X-Y"});
  t.addRow({"Flit size/message size", "16 bytes / 5 flits (data), 1 flit (control)"});
  t.addRow({"Link latency/bandwidth", std::to_string(m.mesh.linkLatency) +
                                          " cycle / 1 flit per cycle"});
  t.addRow({"HTMLock signatures", std::to_string(m.signatureBits) + "-bit Bloom x2 in LLC"});
  std::printf("%s\n", t.str().c_str());
  std::printf("Sensitivity configurations (Fig 13):\n  %s\n  %s\n",
              cfg::MachineParams::smallCache().describe().c_str(),
              cfg::MachineParams::largeCache().describe().c_str());
}

// Table II: the evaluated systems, the backend each row names and their
// mechanism composition, from the same table (cfg::evaluatedSystems()) the
// sweeps run.
void table2() {
  std::printf("TABLE II. Evaluated Systems (reproduction)\n\n");
  stats::Table t({"System", "Description", "backend", "conflict",
                  "reject action", "priority", "HTMLock", "switching",
                  "lock subscr."});
  for (const auto& s : cfg::evaluatedSystems()) {
    const auto& p = s.policy;
    const std::string backend = s.backendName();
    t.addRow({s.name, s.description, backend,
              p.htmEnabled ? core::toString(p.conflict) : "-",
              p.htmEnabled && p.conflict == core::ConflictPolicy::Recovery
                  ? core::toString(p.rejectAction)
                  : "-",
              p.htmEnabled ? core::toString(p.priority) : "-",
              p.htmLock ? "yes" : "no", p.switching ? "yes" : "no",
              // Only Listing 1's stock flavour reads the fallback-lock word
              // inside the transaction; hybrid subscribes the STM clock.
              p.htmEnabled ? (backend == "lockiller" && !p.htmLock ? "yes" : "no")
                           : "-"});
  }
  std::printf("%s\n", t.str().c_str());
}

// Fig 1: requester-win best-effort HTM vs CGL at 2 threads. Expected shape:
// above 1 for the friendly workloads (genome, kmeans-, ssca2, vacation+-),
// below 1 for the pathological ones (intruder, labyrinth, yada).
void fig01(const Grid& grid) {
  const auto workloads = wl::stampNames();
  std::printf("Fig 1: requester-win best-effort HTM vs CGL, 2 threads\n\n");
  stats::Table t({"workload", "speedup vs CGL", "commit rate", ""});
  for (const auto& w : workloads) {
    const double s = grid.speedupVsCgl("Baseline", w, 2);
    t.addRow({w, stats::Table::fixed(s, 2),
              stats::Table::pct(grid.at("Baseline", w, 2).commitRate(), 1),
              stats::bar(s / 2.0)});
  }
  t.addRow({"geo-mean",
            stats::Table::fixed(grid.avgSpeedupVsCgl("Baseline", workloads, 2), 2),
            "", ""});
  std::printf("%s\n", t.str().c_str());
}

// Fig 7: speedup of every evaluated system over CGL at the same thread
// count, typical caches. Expected shape: every Lockiller variant above 1 on
// every workload but yada; HTMLock helps most at high thread counts.
void fig07(const Grid& grid) {
  const auto workloads = wl::stampNames();
  const auto systems = nonCglSystems();
  std::printf(
      "Fig 7: speedup over CGL, typical cache (32KB L1 / 8MB LLC), "
      "threads 2-32\n\n");
  for (unsigned th : kThreads) {
    std::printf("-- %u thread(s): speedup over CGL at the same thread count --\n", th);
    std::vector<std::string> header{"workload"};
    for (const auto& s : systems) header.push_back(s);
    stats::Table table(header);
    for (const auto& w : workloads) {
      std::vector<std::string> row{w};
      for (const auto& s : systems) {
        row.push_back(stats::Table::fixed(grid.speedupVsCgl(s, w, th), 2));
      }
      table.addRow(row);
    }
    std::vector<std::string> avg{"geo-mean"};
    for (const auto& s : systems) {
      avg.push_back(stats::Table::fixed(grid.avgSpeedupVsCgl(s, workloads, th), 2));
    }
    table.addRow(avg);
    std::printf("%s\n", table.str().c_str());
  }
}

// Fig 8: average commit rate of the recovery systems (RAI / RRI / RWI) vs
// the requester-win baseline. Expected shape: recovery + insts-based
// priority raise it well above the baseline (the paper quotes 1.4x / 1.69x /
// 1.63x for the three reject actions).
void fig08(const Grid& grid) {
  const auto workloads = wl::stampNames();
  const std::vector<std::string> systems{"Baseline", "Lockiller-RAI",
                                         "Lockiller-RRI", "Lockiller-RWI"};
  std::printf("Fig 8: average transaction commit rate (all STAMP analogs)\n\n");
  std::vector<std::string> header{"threads"};
  for (const auto& s : systems) header.push_back(s);
  header.push_back("RWI/Baseline");
  stats::Table t(header);
  for (unsigned th : kThreads) {
    std::vector<std::string> row{std::to_string(th)};
    double base = 0.0, rwi = 0.0;
    for (const auto& s : systems) {
      double sum = 0.0;
      int n = 0;
      for (const auto& w : workloads) {
        // Runs with no speculative attempts report no rate; they stay out
        // of the average.
        if (const auto rate = grid.at(s, w, th).commitRate(); rate.has_value()) {
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
}

// Fig 9: time breakdown and commit rate at 32 threads. Expected shape: RWIL
// slashes `waitlock` on genome / vacation+- / intruder; labyrinth and yada
// stay fallback-dominated.
void fig09(const Grid& grid) {
  std::printf(
      "Fig 9: execution-time breakdown + commit rate, 32 threads "
      "(time normalized to Baseline)\n\n");
  printBreakdown(grid, {"Baseline", "Lockiller-RWI", "Lockiller-RWIL"},
                 wl::stampNames(), 32, /*withSwitchLock=*/false);
}

// Fig 10: abort causes at 2 threads. Expected shape: HTMLock removes `mutex`
// aborts, switchingMode slashes `of` aborts, `fault` aborts remain.
void fig10(const Grid& grid) {
  const std::vector<std::string> systems{"Baseline", "Lockiller-RWIL", "LockillerTM"};
  std::printf("Fig 10: abort causes (%% of aborts) at 2 threads\n\n");
  stats::Table t({"workload", "system", "aborts", "mc", "lock", "mutex", "non_tran",
                  "of", "fault", "commit rate"});
  for (const auto& w : wl::stampNames()) {
    for (const auto& s : systems) {
      const auto& r = grid.at(s, w, 2);
      const double total = static_cast<double>(r.aborts());
      auto pct = [&](AbortCause c) {
        if (total == 0) return std::string("-");
        return stats::Table::pct(static_cast<double>(r.abortCount(c)) / total, 1);
      };
      t.addRow({w, s, std::to_string(r.aborts()), pct(AbortCause::MemConflict),
                pct(AbortCause::LockConflict), pct(AbortCause::Mutex),
                pct(AbortCause::NonTran), pct(AbortCause::Overflow),
                pct(AbortCause::Fault), stats::Table::pct(r.commitRate(), 1)});
    }
  }
  std::printf("%s\n", t.str().c_str());
}

// Fig 11: time breakdown at 2 threads with the `switchLock` category.
// Expected shape: LockillerTM turns `aborted`+`lock` time into `switchLock`
// time on the overflow-prone workloads (labyrinth, yada).
void fig11(const Grid& grid) {
  const auto workloads = wl::stampNames();
  std::printf(
      "Fig 11: execution-time breakdown + commit rate, 2 threads "
      "(time normalized to Baseline)\n\n");
  printBreakdown(grid, {"Baseline", "Lockiller-RWIL", "LockillerTM"}, workloads, 2,
                 /*withSwitchLock=*/true);
  stats::Table t({"workload", "switch attempts", "grants", "stl commits"});
  for (const auto& w : workloads) {
    const auto& r = grid.at("LockillerTM", w, 2);
    t.addRow({w, std::to_string(r.switchAttempts()), std::to_string(r.switchGrants()),
              std::to_string(r.stlCommits())});
  }
  std::printf("LockillerTM switchingMode activity @2t\n%s\n", t.str().c_str());
}

// Fig 12: geo-mean speedup over CGL per thread count. Expected shape:
// LockillerTM above LosaTM-SAFU and the baseline on average (the paper
// quotes 1.86x over Baseline and 1.57x over LosaTM-SAFU).
void fig12(const Grid& grid) {
  const auto workloads = wl::stampNames();
  const auto systems = nonCglSystems();
  std::printf("Fig 12: geo-mean speedup over CGL across all STAMP analogs\n\n");
  std::vector<std::string> header{"threads"};
  for (const auto& s : systems) header.push_back(s);
  stats::Table t(header);
  for (unsigned th : kThreads) {
    std::vector<std::string> row{std::to_string(th)};
    for (const auto& s : systems) {
      row.push_back(stats::Table::fixed(grid.avgSpeedupVsCgl(s, workloads, th), 2));
    }
    t.addRow(row);
  }
  std::printf("%s\n", t.str().c_str());

  // Paper-style headline ratios, averaged over all thread counts.
  auto overall = [&](const std::string& sys) {
    double p = 1.0;
    for (unsigned th : kThreads) p *= grid.avgSpeedupVsCgl(sys, workloads, th);
    return std::pow(p, 1.0 / static_cast<double>(kThreads.size()));
  };
  const double lk = overall("LockillerTM");
  std::printf("LockillerTM vs best-effort HTM: %.2fx   vs LosaTM-SAFU: %.2fx\n",
              lk / overall("Baseline"), lk / overall("LosaTM-SAFU"));
}

// Fig 13: cache sensitivity, one table per cache variant. Expected shape:
// LockillerTM beats CGL and the baseline on both.
void fig13(const Grid& grid) {
  const auto workloads = wl::stampNames();
  const std::vector<std::string> systems{"Baseline", "LosaTM-SAFU", "Lockiller-RWI",
                                         "LockillerTM"};
  std::printf("Fig 13 [%s]: geo-mean speedup over CGL\n\n", grid.machine().c_str());
  std::vector<std::string> header{"threads"};
  for (const auto& s : systems) header.push_back(s);
  stats::Table t(header);
  for (unsigned th : kThreads) {
    std::vector<std::string> row{std::to_string(th)};
    for (const auto& s : systems) {
      row.push_back(stats::Table::fixed(grid.avgSpeedupVsCgl(s, workloads, th), 2));
    }
    t.addRow(row);
  }
  std::printf("%s\n", t.str().c_str());
}

// Table III (extension): database traffic under every TM backend, with the
// commit-latency percentiles next to the throughput numbers.
void table3(const Grid& grid) {
  const auto& workloads = wl::dbWorkloadNames();
  const std::vector<std::string> systems{"LockillerTM", "CGL", "TL2-STM", "Hybrid-TM"};
  constexpr unsigned kDbThreads = 8;
  std::printf(
      "Table III: database traffic, %u threads — commit latency percentiles\n"
      "(cycles from first critical-section attempt to commit, spanning "
      "retries)\n\n",
      kDbThreads);
  stats::Table t({"workload", "system", "cycles", "commit rate", "aborts",
                  "p50", "p99", "p999"});
  for (const auto& w : workloads) {
    for (const auto& s : systems) {
      const auto& r = grid.at(s, w, kDbThreads);
      t.addRow({w, s, std::to_string(r.cycles), stats::Table::pct(r.commitRate(), 1),
                std::to_string(r.aborts()),
                std::to_string(r.commitLatencyPercentile(500)),
                std::to_string(r.commitLatencyPercentile(990)),
                std::to_string(r.commitLatencyPercentile(999))});
    }
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("geo-mean speedup vs CGL at %u threads:\n", kDbThreads);
  stats::Table g({"system", "speedup"});
  for (const auto& s : systems) {
    g.addRow({s, stats::Table::fixed(grid.avgSpeedupVsCgl(s, workloads, kDbThreads), 2)});
  }
  std::printf("%s\n", g.str().c_str());
}

// The design-choice ablations beyond the paper: the "ablations" preset's
// cells, each knob spelled as its name token.
std::string retryCell(unsigned retries, bool skip) {
  std::string name = "Baseline";
  if (retries != rt::RetryPolicy{}.maxRetries) name += "+retries=" + std::to_string(retries);
  return skip ? name : name + "+noskip";
}

void retryPolicyAblation(const Grid& grid) {
  std::printf("(a) Retry policy — Baseline on vacation+ @16t\n");
  stats::Table t({"maxRetries", "skipPersistent", "cycles", "commit rate",
                  "fallback sections"});
  for (unsigned retries : {1u, 4u, 8u, 16u}) {
    for (bool skip : {true, false}) {
      const auto& r = grid.at(retryCell(retries, skip), "vacation+", 16);
      t.addRow({std::to_string(retries), skip ? "yes" : "no",
                std::to_string(r.cycles), stats::Table::pct(r.commitRate()),
                std::to_string(r.lockCommits())});
    }
  }
  std::printf("%s\n", t.str().c_str());
}

void signatureAblation(const std::vector<cfg::RunResult>& results) {
  std::printf(
      "(b) HTMLock signature size — LockillerTM on yada @8t, 8KB L1.\n"
      "    Smaller Bloom filters mean more false positives, but the filter is\n"
      "    only consulted for requests that reach the LLC *while* a lock\n"
      "    transaction holds overflowed lines — most conflicts resolve at the\n"
      "    holder's L1 first. Expected finding: performance is insensitive to\n"
      "    the signature size at these scales, which is why LogTM-SE-style\n"
      "    2048-bit filters are comfortably sufficient (and why the paper\n"
      "    never needed to tune them).\n");
  stats::Table t({"sig bits", "cycles", "sig rejects", "commit rate"});
  for (unsigned bits : {64u, 256u, 2048u, 16384u}) {
    const std::string machine = bits == cfg::MachineParams{}.signatureBits
                                    ? "small-cache"
                                    : "small-cache-sig=" + std::to_string(bits);
    const auto& r = Grid(results, machine).at("LockillerTM", "yada", 8);
    t.addRow({std::to_string(bits), std::to_string(r.cycles),
              std::to_string(r.sigRejects()), stats::Table::pct(r.commitRate())});
  }
  std::printf("%s\n", t.str().c_str());
}

void lockImplAblation(const Grid& grid) {
  std::printf("(c) CGL lock implementation — kmeans- (short sections)\n");
  stats::Table t({"lock", "threads", "cycles"});
  for (const auto& [lock, system] : {std::pair{"MCS", "CGL"}, std::pair{"TTS", "CGL+lock=tts"}}) {
    for (unsigned th : {2u, 8u, 32u}) {
      t.addRow({lock, std::to_string(th), std::to_string(grid.at(system, "kmeans-", th).cycles)});
    }
  }
  std::printf("%s\n", t.str().c_str());
}

void networkAblation(const Grid& meshGrid, const Grid& idealGrid) {
  std::printf("(d) Interconnect — LockillerTM @32t, mesh vs ideal network\n");
  stats::Table t({"workload", "mesh cycles", "ideal cycles", "NoC overhead"});
  for (const char* w : {"intruder", "kmeans+", "vacation-"}) {
    const auto& mesh = meshGrid.at("LockillerTM", w, 32);
    const auto& ideal = idealGrid.at("LockillerTM", w, 32);
    const double ovh = ideal.cycles != 0
                           ? static_cast<double>(mesh.cycles) / ideal.cycles - 1.0
                           : 0.0;
    t.addRow({w, std::to_string(mesh.cycles), std::to_string(ideal.cycles),
              stats::Table::pct(ovh)});
  }
  std::printf("%s\n", t.str().c_str());
}

void switchOnFaultAblation(const Grid& grid) {
  std::printf(
      "(e) Switch-on-fault extension — yada (exception-dominated), the one\n"
      "    workload the paper loses; Section III-C explains why the authors\n"
      "    abort on exceptions instead (CPU complexity, context-switch\n"
      "    security). This quantifies what that choice costs.\n");
  stats::Table t({"threads", "LockillerTM", "+switchOnFault", "stl commits",
                  "fault aborts"});
  for (unsigned th : {2u, 8u, 16u}) {
    const auto& base = grid.at("LockillerTM", "yada", th);
    const auto& xf = grid.at("LockillerTM+sof", "yada", th);
    t.addRow({std::to_string(th), std::to_string(base.cycles),
              std::to_string(xf.cycles), std::to_string(xf.stlCommits()),
              std::to_string(xf.abortCount(AbortCause::Fault))});
  }
  std::printf("%s\n", t.str().c_str());
}

void ablations(const std::vector<cfg::RunResult>& results) {
  const Grid typical(results, "typical");
  std::printf("LockillerTM design-choice ablations\n\n");
  retryPolicyAblation(typical);
  signatureAblation(results);
  lockImplAblation(typical);
  networkAblation(typical, Grid(results, "typical-net=ideal"));
  switchOnFaultAblation(typical);
}

}  // namespace

int main() {
  cfg::SweepManifest manifest = cfg::presetManifest("figures", "");
  std::vector<cfg::RunResult> results;
  cfg::runManifest(manifest, "", {}, {}, &results);
  bool failed = false;
  for (const auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "paper_figures: FAILED RUN: %s\n", r.str().c_str());
      failed = true;
    }
  }
  if (failed) return 1;

  try {
    const Grid typical(results, "typical");
    table1();
    table2();
    fig01(typical);
    fig07(typical);
    fig08(typical);
    fig09(typical);
    fig10(typical);
    fig11(typical);
    fig12(typical);
    fig13(Grid(results, "small-cache"));
    fig13(Grid(results, "large-cache"));
    table3(typical);
    ablations(results);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "paper_figures: %s\n", e.what());
    return 1;
  }
  return 0;
}
