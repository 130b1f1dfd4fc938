#include "config/runner.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "coherence/checker.hpp"
#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "cpu/barrier.hpp"
#include "cpu/core.hpp"
#include "noc/ideal.hpp"
#include "noc/mesh.hpp"
#include "runtime/backends/backend.hpp"
#include "sim/engine.hpp"
#include "stats/tx_stats.hpp"

namespace lktm::cfg {

namespace {

// Host-side wall clock for RunResult::wallSeconds reporting; it never feeds
// simulated time, which advances only through Engine events.
// lktm-lint: allow(no-wall-clock) -- RunResult::wallSeconds reporting only
using WallClock = std::chrono::steady_clock;

}  // namespace

const char* toString(RunStatus s) {
  switch (s) {
    case RunStatus::Ok: return "ok";
    case RunStatus::Failed: return "failed";
    case RunStatus::Hang: return "hang";
    case RunStatus::Timeout: return "timeout";
  }
  return "?";
}

bool runStatusFromString(const std::string& name, RunStatus& out) {
  for (auto s : {RunStatus::Ok, RunStatus::Failed, RunStatus::Hang,
                 RunStatus::Timeout}) {
    if (name == toString(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

Cycle TimeBreakdown::total() const {
  Cycle t = 0;
  for (const Cycle c : cycles) t += c;
  return t;
}

double TimeBreakdown::fraction(TimeCat c) const {
  const Cycle t = total();
  if (t == 0) return 0.0;
  return static_cast<double>(get(c)) / static_cast<double>(t);
}

std::uint64_t RunResult::abortCount(AbortCause cause) const {
  return stats.sumMatching(std::string("core.*.aborts.") + stats::abortCauseSlug(cause));
}

std::optional<double> RunResult::commitRate() const {
  return stats::commitRate(htmCommits(), stlCommits() + stmCommits(), aborts());
}

TimeBreakdown RunResult::breakdown() const {
  TimeBreakdown b;
  for (std::size_t i = 0; i < b.cycles.size(); ++i) {
    b.cycles[i] = stats.sumMatching(std::string("core.*.time.") +
                                    stats::timeCatSlug(static_cast<TimeCat>(i)));
  }
  return b;
}

TimeBreakdown RunResult::threadBreakdown(unsigned tid) const {
  TimeBreakdown b;
  const std::string prefix = "core." + std::to_string(tid) + ".time.";
  for (std::size_t i = 0; i < b.cycles.size(); ++i) {
    b.cycles[i] = stats.value(prefix + stats::timeCatSlug(static_cast<TimeCat>(i)));
  }
  return b;
}

std::string RunResult::str() const {
  std::ostringstream oss;
  oss << system << "/" << workload << "@" << threads << "t[" << machine
      << "]: " << cycles << " cycles, commits htm=" << htmCommits()
      << " lock=" << lockCommits() << " stl=" << stlCommits()
      << " stm=" << stmCommits() << " aborts=" << aborts() << " (rate=";
  if (const auto rate = commitRate(); rate.has_value()) {
    oss << *rate;
  } else {
    oss << "-";
  }
  oss << ")" << (ok() ? "" : " FAILED");
  for (const auto& v : violations) oss << "\n  violation: " << v;
  if (status != RunStatus::Ok) {
    oss << "\n  " << toString(status) << ": " << diagnostic;
  }
  return oss.str();
}

RunResult runSimulation(const RunConfig& cfg, const WorkloadFactory& makeWorkload,
                        sim::SimContext* ctx) {
  cfg.machine.validate();
  if (cfg.threads > cfg.machine.numCores) {
    throw std::invalid_argument(
        "run config: " + std::to_string(cfg.threads) + " threads exceed the " +
        std::to_string(cfg.machine.numCores) + " cores of machine '" +
        cfg.machine.name + "' (one thread per core; scale the machine with a "
        "-cN name suffix)");
  }

  RunResult res;
  res.system = cfg.system.name;
  res.machine = cfg.machine.name;
  res.threads = cfg.threads;
  res.cores = cfg.machine.numCores;
  res.banks = cfg.machine.numBanks;
  res.seed = cfg.rngSeed;

  std::unique_ptr<sim::SimContext> localCtx;
  if (ctx == nullptr) {
    localCtx = std::make_unique<sim::SimContext>(cfg.machine.watchdogWindow);
    ctx = localCtx.get();
  }
  sim::SimContext& simCtx = *ctx;
  simCtx.beginRun(cfg.machine.watchdogWindow, cfg.rngSeed);
  sim::Engine& engine = simCtx.engine();
  mem::MainMemory memory;
  memory.attachStats(simCtx.stats());
  std::unique_ptr<noc::Network> netPtr;
  if (cfg.machine.idealNetwork) {
    netPtr = std::make_unique<noc::IdealNetwork>(simCtx, cfg.machine.idealNetworkLatency);
  } else {
    netPtr = std::make_unique<noc::MeshNetwork>(simCtx, cfg.machine.mesh);
  }
  noc::Network& net = *netPtr;

  coh::DirectoryController dir(simCtx, net, memory, cfg.machine.protocol,
                               cfg.machine.numCores, cfg.machine.numBanks,
                               core::HtmLockUnitParams{cfg.machine.signatureBits, 4});

  const unsigned n = cfg.threads;
  std::unique_ptr<wl::Workload> workload = makeWorkload();
  res.workload = workload->name();
  workload->init(memory, n);

  std::unique_ptr<tm::Backend> backend = tm::makeBackend(
      cfg.system.backendName(),
      tm::BackendConfig{cfg.system.policy, cfg.system.retry, wl::kFallbackLockAddr});
  res.backend = backend->name();
  // The footprint guard precedes the LLC warm-up, so a rejected workload
  // never reaches the rest of the set-up.
  if (backend->usesStmScratch() && workload->footprintEnd() > tm::kStmScratchBase) {
    throw std::invalid_argument(
        "backend '" + res.backend + "': workload '" + res.workload +
        "' footprint reaches into the software-TM metadata region (>= " +
        std::to_string(tm::kStmScratchBase) + ")");
  }

  if (cfg.warmLlc) {
    dir.preloadLlc(lineOf(wl::kFallbackLockAddr), lineOf(workload->footprintEnd()) + 1);
  }

  std::vector<std::unique_ptr<coh::L1Controller>> l1s;
  l1s.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    l1s.push_back(std::make_unique<coh::L1Controller>(
        simCtx, net, static_cast<CoreId>(i), cfg.machine.l1, cfg.machine.protocol,
        cfg.system.policy, cfg.machine.numCores));
    l1s.back()->connectDirectory(&dir);
    l1s.back()->setLockLine(lineOf(wl::kFallbackLockAddr));
    dir.connectL1(static_cast<CoreId>(i), l1s.back().get());
  }
  std::vector<coh::MsgSink*> peers;
  for (auto& l1 : l1s) peers.push_back(l1.get());
  for (auto& l1 : l1s) l1->connectPeers(peers);

  cpu::BarrierUnit barrier(simCtx, n);
  cpu::CpuParams cpuParams = cfg.machine.cpu;
  cpuParams.priorityKind = cfg.system.policy.priority;
  cpuParams.switchOnFault = cfg.system.policy.switching && cfg.system.policy.switchOnFault;

  std::vector<std::unique_ptr<cpu::Cpu>> cpus;
  cpus.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    cpus.push_back(std::make_unique<cpu::Cpu>(
        simCtx, static_cast<CoreId>(i), *l1s[i], barrier,
        workload->buildProgram(i, n, *backend), cpuParams));
    engine.addDiagnostic([c = cpus.back().get()] { return c->diagnostic(); });
  }
  engine.addDiagnostic([&dir] { return dir.diagnostic(); });

  for (auto& c : cpus) c->start();

  const auto wallStart = WallClock::now();
  try {
    engine.run(cfg.machine.maxCycles);
  } catch (const sim::SimulationTimeout& e) {
    res.status = RunStatus::Timeout;
    res.diagnostic = e.what();
  } catch (const sim::SimulationHang& e) {
    res.status = RunStatus::Hang;
    res.diagnostic = e.what();
  }
  res.wallSeconds =
      std::chrono::duration<double>(WallClock::now() - wallStart).count();

  // A Hang/Timeout diagnostic from Engine::run already lists every CPU; only
  // a queue that drained with a thread still running needs the per-CPU lines.
  const bool engineDiagnosed = res.status != RunStatus::Ok;
  for (auto& c : cpus) {
    if (!c->halted()) {
      if (res.status == RunStatus::Ok) {
        res.status = RunStatus::Hang;
        res.diagnostic = "thread never halted";
      }
      if (!engineDiagnosed) res.diagnostic += "\n  " + c->diagnostic();
    }
    res.cycles = std::max(res.cycles, c->haltedAt());
  }
  if (res.cycles == 0) res.cycles = engine.now();
  res.stats = simCtx.stats().snapshot();

  if (res.status == RunStatus::Ok && cfg.runCoherenceChecker) {
    std::vector<const coh::L1Controller*> cl1s;
    for (auto& l1 : l1s) cl1s.push_back(l1.get());
    coh::CoherenceChecker checker(cl1s, &dir);
    for (auto& v : checker.check()) res.violations.push_back("coherence: " + v);
  }

  if (res.status == RunStatus::Ok && cfg.verifyWorkload) {
    // Coherent word reader: freshest dirty L1 copy > main memory, which
    // holds the LLC's data.
    wl::WordReader read = [&](Addr addr) -> std::uint64_t {
      const LineAddr line = lineOf(addr);
      for (auto& l1 : l1s) {
        const mem::CacheEntry* e = l1->cache().find(line);
        if (e != nullptr && e->dirty) return e->data[wordOf(addr)];
      }
      return memory.readWord(addr);
    };
    for (auto& v : workload->verify(read, n)) res.violations.push_back(v);
  }
  return res;
}

}  // namespace lktm::cfg
