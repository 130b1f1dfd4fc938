// Shared machinery for the figure-reproduction benches: sweeps, speedup
// tables and breakdown printers. Each bench binary regenerates one table or
// figure of the paper in text form.
//
// Every grid runs through sweepCells() as a manifest under cfg::runManifest.
// Normally the manifest lives in memory; when LKTM_SWEEP_DIR is set it is
// checkpointed in that directory with per-job artifacts next to it, so a
// killed figure run continues where it stopped.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/sweep.hpp"
#include "config/systems.hpp"
#include "stats/report.hpp"
#include "workloads/workload.hpp"

namespace lktm::bench {

inline const std::vector<unsigned>& paperThreadCounts() {
  static const std::vector<unsigned> t{2, 4, 8, 16, 32};
  return t;
}

inline std::vector<cfg::SystemSpec> systemsByName(const std::vector<std::string>& names) {
  std::vector<cfg::SystemSpec> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(cfg::systemByName(n));
  return out;
}

/// Run one figure grid on the caller's own MachineParams / SystemSpec objects
/// (cfg::gridRunner). With LKTM_SWEEP_DIR set, the manifest is named after
/// the grid's contents (machine + FNV of the cell list) inside that directory
/// and runs resumably.
inline std::vector<cfg::RunResult> sweepCells(const cfg::MachineParams& machine,
                                              const std::vector<cfg::SystemSpec>& systems,
                                              const std::vector<std::string>& workloads,
                                              const std::vector<unsigned>& threads,
                                              unsigned hostThreads = 0) {
  std::vector<std::string> systemNames;
  for (const auto& s : systems) systemNames.push_back(s.name);
  cfg::OrchestratorOptions opts;
  opts.hostThreads = hostThreads;
  std::string manifestPath;
  cfg::SweepManifest m;

  const char* dir = std::getenv("LKTM_SWEEP_DIR");
  if (dir == nullptr || *dir == '\0') {
    m = cfg::makeManifest("", machine.name, systemNames, workloads, threads);
  } else {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string& s) {
      for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
      }
      h ^= 0xff;
      h *= 0x100000001b3ull;
    };
    mix(machine.name);
    for (const auto& s : systemNames) mix(s);
    for (const auto& w : workloads) mix(w);
    for (const unsigned t : threads) mix(std::to_string(t));

    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
    const std::string base = std::string(dir) + "/" + machine.name + "-" + hex;
    manifestPath = base + ".manifest.json";
    try {
      m = cfg::SweepManifest::load(manifestPath);
    } catch (const std::exception&) {
      m = cfg::makeManifest(base + ".d", machine.name, systemNames, workloads, threads);
    }
    opts.progress = &std::cerr;
  }

  std::vector<cfg::RunResult> results;
  cfg::runManifest(m, manifestPath, opts, cfg::gridRunner(machine, systems), &results);
  return results;
}

/// Speedup of `sys` over the CGL run at the same workload/thread count.
inline double speedupVsCgl(const std::vector<cfg::RunResult>& results,
                           const std::string& sys, const std::string& workload,
                           unsigned threads) {
  const auto* cgl = cfg::findResult(results, "CGL", workload, threads);
  const auto* s = cfg::findResult(results, sys, workload, threads);
  if (cgl == nullptr || s == nullptr || s->cycles == 0) return 0.0;
  return static_cast<double>(cgl->cycles) / static_cast<double>(s->cycles);
}

/// Geometric mean of per-workload speedups vs CGL.
inline double avgSpeedupVsCgl(const std::vector<cfg::RunResult>& results,
                              const std::string& sys,
                              const std::vector<std::string>& workloads,
                              unsigned threads) {
  double product = 1.0;
  int n = 0;
  for (const auto& w : workloads) {
    const double s = speedupVsCgl(results, sys, w, threads);
    if (s > 0.0) {
      product *= s;
      ++n;
    }
  }
  return n > 0 ? std::pow(product, 1.0 / n) : 0.0;
}

/// One speedup table per thread count (the paper's Fig 7 layout).
inline void printSpeedupTables(const std::vector<cfg::RunResult>& results,
                               const std::vector<std::string>& systems,
                               const std::vector<std::string>& workloads,
                               const std::vector<unsigned>& threads) {
  for (unsigned t : threads) {
    std::printf("-- %u thread(s): speedup over CGL at the same thread count --\n", t);
    std::vector<std::string> header{"workload"};
    for (const auto& s : systems) header.push_back(s);
    stats::Table table(header);
    for (const auto& w : workloads) {
      std::vector<std::string> row{w};
      for (const auto& s : systems) {
        row.push_back(stats::Table::fixed(speedupVsCgl(results, s, w, t), 2));
      }
      table.addRow(row);
    }
    std::vector<std::string> avg{"geo-mean"};
    for (const auto& s : systems) {
      avg.push_back(stats::Table::fixed(avgSpeedupVsCgl(results, s, workloads, t), 2));
    }
    table.addRow(avg);
    std::printf("%s\n", table.str().c_str());
  }
}

/// Normalized execution-time breakdown rows (Figs 9/11).
inline void printBreakdown(const std::vector<cfg::RunResult>& results,
                           const std::vector<std::string>& systems,
                           const std::vector<std::string>& workloads,
                           unsigned threads, bool withSwitchLock) {
  std::vector<std::string> header{"workload", "system", "htm", "aborted", "lock"};
  if (withSwitchLock) header.push_back("switchLock");
  header.insert(header.end(), {"non_tran", "waitlock", "rollback", "commit rate",
                               "norm. time"});
  stats::Table table(header);
  for (const auto& w : workloads) {
    const auto* ref = cfg::findResult(results, systems.front(), w, threads);
    for (const auto& s : systems) {
      const auto* r = cfg::findResult(results, s, w, threads);
      if (r == nullptr) continue;
      std::vector<std::string> row{w, s};
      auto pct = [&](TimeCat c) {
        return stats::Table::pct(r->breakdown().fraction(c), 1);
      };
      row.push_back(pct(TimeCat::Htm));
      row.push_back(pct(TimeCat::Aborted));
      row.push_back(pct(TimeCat::Lock));
      if (withSwitchLock) row.push_back(pct(TimeCat::SwitchLock));
      row.push_back(pct(TimeCat::NonTran));
      row.push_back(pct(TimeCat::WaitLock));
      row.push_back(pct(TimeCat::Rollback));
      row.push_back(stats::Table::pct(r->commitRate(), 1));
      const double norm = ref != nullptr && ref->cycles != 0
                              ? static_cast<double>(r->cycles) / ref->cycles
                              : 0.0;
      row.push_back(stats::Table::fixed(norm, 2));
      table.addRow(row);
    }
  }
  std::printf("%s\n", table.str().c_str());
}

inline void reportFailures(const std::vector<cfg::RunResult>& results) {
  for (const auto& r : results) {
    if (!r.ok()) std::printf("!! FAILED RUN: %s\n", r.str().c_str());
  }
}

}  // namespace lktm::bench
