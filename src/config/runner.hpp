// End-to-end simulation harness: builds a full system (cores + L1s + mesh +
// directory/LLC) for one (machine, system, workload, thread-count) tuple,
// runs it to completion, verifies workload invariants and optionally the
// coherence checker, and returns the run's stat snapshot.
//
// All statistics flow through the instrumentation spine: components register
// into the SimContext's StatRegistry, and RunResult carries one StatSnapshot
// of everything. The named accessors below are the blessed read paths for the
// figures and tools (they sum per-core counters exactly like the retired
// per-struct aggregation did, so derived numbers are bit-identical).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/machine.hpp"
#include "config/systems.hpp"
#include "sim/context.hpp"
#include "stats/registry.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {

/// Aggregated execution-time breakdown (the paper's Figs 9/11), computed from
/// a snapshot's "core.*.time.<cat>" counters.
struct TimeBreakdown {
  std::array<Cycle, static_cast<std::size_t>(TimeCat::kCount)> cycles{};

  Cycle total() const;
  Cycle get(TimeCat c) const { return cycles[static_cast<std::size_t>(c)]; }
  double fraction(TimeCat c) const;
};

/// How a run terminated. `Failed` covers crashes (exceptions) and invariant
/// violations; `Hang` is the forward-progress watchdog (livelock/deadlock);
/// `Timeout` is an exhausted simulated-cycle budget. The distinction matters
/// downstream: a crash is a bug, a hang is a protocol bug, a timeout may just
/// be an undersized budget.
enum class RunStatus : std::uint8_t { Ok, Failed, Hang, Timeout };

const char* toString(RunStatus s);
/// Inverse of toString; returns false on an unknown name.
bool runStatusFromString(const std::string& name, RunStatus& out);

struct RunResult {
  std::string system;
  std::string workload;
  std::string machine;
  std::string backend;  ///< TM backend the run executed on (registry name)
  unsigned threads = 0;
  unsigned cores = 0;      ///< machine core count the run executed with
  unsigned banks = 1;      ///< LLC directory bank count
  std::uint64_t seed = 0;  ///< RNG seed the run executed with (job identity)

  Cycle cycles = 0;  ///< wall-clock of the run (last thread's halt)
  stats::StatSnapshot stats;  ///< full registry dump at end of run
  double wallSeconds = 0.0;   ///< host seconds the simulation loop took

  std::vector<std::string> violations;  ///< workload + coherence failures
  RunStatus status = RunStatus::Ok;
  std::string diagnostic;  ///< failure detail (exception text, hang report, …)

  bool ok() const { return violations.empty() && status == RunStatus::Ok; }
  bool hang() const { return status == RunStatus::Hang; }

  // ---- registry-backed accessors (sums over all cores) ----
  std::uint64_t htmCommits() const { return stats.sumMatching("core.*.commits.htm"); }
  std::uint64_t lockCommits() const { return stats.sumMatching("core.*.commits.lock"); }
  std::uint64_t stlCommits() const { return stats.sumMatching("core.*.commits.stl"); }
  std::uint64_t stmCommits() const { return stats.sumMatching("core.*.commits.stm"); }
  std::uint64_t totalCommits() const {
    return htmCommits() + lockCommits() + stlCommits() + stmCommits();
  }
  std::uint64_t aborts() const { return stats.sumMatching("core.*.aborts.total"); }
  std::uint64_t abortCount(AbortCause cause) const;
  std::uint64_t switchAttempts() const { return stats.sumMatching("core.*.switch.attempts"); }
  std::uint64_t switchGrants() const { return stats.sumMatching("core.*.switch.grants"); }
  std::uint64_t rejectsSent() const { return stats.sumMatching("core.*.rejects.sent"); }
  std::uint64_t rejectsReceived() const { return stats.sumMatching("core.*.rejects.received"); }
  std::uint64_t wakeupsSent() const { return stats.sumMatching("core.*.wakeups.sent"); }
  std::uint64_t sigRejects() const { return stats.value("dir.sig_rejects"); }
  std::uint64_t l1Hits() const { return stats.sumMatching("core.*.l1.hits"); }
  std::uint64_t l1Misses() const { return stats.sumMatching("core.*.l1.misses"); }
  std::uint64_t llcHits() const { return stats.value("dir.llc.hits"); }
  std::uint64_t llcMisses() const { return stats.value("dir.llc.misses"); }
  std::uint64_t writebacks() const { return stats.value("dir.writebacks"); }
  std::uint64_t messages() const { return stats.value("noc.messages"); }
  std::uint64_t dataMessages() const { return stats.value("noc.data_messages"); }
  std::uint64_t flitHops() const { return stats.value("noc.flit_hops"); }

  /// Commit rate of speculative attempts: (htm+stl+stm)/(htm+stl+stm+aborts);
  /// absent when there were none — idle cores must not read as perfect.
  std::optional<double> commitRate() const;

  /// All cores' commit-latency histograms ("core.*.latency.commit") merged
  /// into one entry: cycles from a critical section's first attempt to its
  /// commit, spanning aborts/retries/fallback.
  stats::SnapshotEntry commitLatency() const {
    return stats.mergedHistogram("core.*.latency.commit");
  }
  /// Commit-latency percentile in cycles (permille: p50=500, p999=999).
  std::uint64_t commitLatencyPercentile(unsigned permille) const {
    return stats::histogramPercentile(commitLatency(), permille);
  }

  /// Sum over all threads (Fig 9); per-thread view for skew analysis.
  TimeBreakdown breakdown() const;
  TimeBreakdown threadBreakdown(unsigned tid) const;

  std::string str() const;
};

/// A workload factory: each run needs a fresh instance.
using WorkloadFactory = std::function<std::unique_ptr<wl::Workload>()>;

struct RunConfig {
  MachineParams machine = MachineParams::typical();
  SystemSpec system;
  unsigned threads = 2;
  /// Seed for the context RNG stream (SimContext::beginRun). Always set
  /// explicitly by the sweep orchestrator from the job manifest so a job's
  /// randomness can never depend on which worker's context runs it.
  std::uint64_t rngSeed = sim::SimContext::kDefaultSeed;
  bool runCoherenceChecker = true;
  bool verifyWorkload = true;
  /// Warm the inclusive LLC with the workload footprint (steady-state runs).
  bool warmLlc = true;
};

/// Run one simulation on the backend its system row names
/// (SystemSpec::backendName). When `ctx` is non-null the run executes inside
/// that context (beginRun() resets its logical state first, pools keep their
/// memory — the sweep reuse path) and traces into the context's sink, if one
/// is attached; when null a fresh context is built on the stack, which
/// preserves the simple one-shot call shape.
RunResult runSimulation(const RunConfig& cfg, const WorkloadFactory& makeWorkload,
                        sim::SimContext* ctx = nullptr);

}  // namespace lktm::cfg
