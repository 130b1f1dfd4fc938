// Experiment sanity: the paper's qualitative claims must hold in this
// reproduction (shape, not absolute numbers). These back the rows reported
// in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cmath>

#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {
namespace {

RunResult run(const std::string& system, const std::string& workload,
              unsigned threads, MachineParams machine = MachineParams::typical()) {
  RunConfig rc;
  rc.machine = machine;
  rc.system = systemByName(system);
  rc.threads = threads;
  auto r = runSimulation(rc, [&] { return makeJobWorkload(workload, 11); });
  EXPECT_TRUE(r.ok()) << r.str();
  return r;
}

double speedup(const RunResult& base, const RunResult& sys) {
  return static_cast<double>(base.cycles) / static_cast<double>(sys.cycles);
}

// Fig 1: requester-win best-effort HTM loses to CGL on the pathological
// workloads and wins on the friendly ones (2 threads).
TEST(Fig1, BaselineLosesOnPathologicalWorkloads) {
  for (const char* w : {"labyrinth", "yada"}) {
    const auto cgl = run("CGL", w, 2);
    const auto base = run("Baseline", w, 2);
    EXPECT_LT(speedup(cgl, base), 1.0) << w;
  }
}

TEST(Fig1, BaselineWinsOnFriendlyWorkloads) {
  for (const char* w : {"genome", "ssca2", "vacation-", "kmeans-"}) {
    const auto cgl = run("CGL", w, 2);
    const auto base = run("Baseline", w, 2);
    EXPECT_GT(speedup(cgl, base), 1.0) << w;
  }
}

// Section IV headline: LockillerTM outperforms CGL on every workload except
// yada, independent of thread count.
TEST(Fig7, LockillerBeatsCglExceptYada) {
  for (const char* w : {"genome", "intruder", "kmeans+", "ssca2", "vacation+",
                        "labyrinth"}) {
    for (unsigned t : {2u, 16u}) {
      const auto cgl = run("CGL", w, t);
      const auto lk = run("LockillerTM", w, t);
      EXPECT_GT(speedup(cgl, lk), 1.0) << w << "@" << t;
    }
  }
}

TEST(Fig7, YadaIsTheException) {
  const auto cgl = run("CGL", "yada", 2);
  const auto lk = run("LockillerTM", "yada", 2);
  EXPECT_LT(speedup(cgl, lk), 1.0);
}

TEST(Fig7, LockillerBeatsBaselineOnContention) {
  for (const char* w : {"intruder", "vacation+", "kmeans+"}) {
    const auto base = run("Baseline", w, 16);
    const auto lk = run("LockillerTM", w, 16);
    EXPECT_GT(speedup(base, lk), 1.0) << w;
  }
}

// Fig 8: the recovery mechanism + insts-based priority raises commit rates
// over requester-wins.
TEST(Fig8, RecoveryImprovesCommitRate) {
  // Averaged across workloads, as the paper reports (intruder's total-overlap
  // pattern bounds any policy's rate near 1/threads, so per-workload
  // comparisons there are noise).
  double sumBase = 0.0, sumRwi = 0.0;
  int n = 0;
  for (const char* w : {"kmeans+", "vacation+", "genome", "ssca2"}) {
    sumBase += run("Baseline", w, 16).commitRate().value();
    sumRwi += run("Lockiller-RWI", w, 16).commitRate().value();
    ++n;
  }
  EXPECT_GT(sumRwi / n, sumBase / n);
}

// Fig 9: HTMLock slashes waitlock time on lock-heavy workloads (32 threads).
TEST(Fig9, HtmLockReducesWaitLockTime) {
  // The paper's Fig 9 calls out genome / vacation+- / intruder: conflicts push
  // threads onto the fallback path, and HTMLock removes the all-stop.
  for (const char* w : {"vacation+", "intruder"}) {
    const auto rwi = run("Lockiller-RWI", w, 16);
    const auto rwil = run("Lockiller-RWIL", w, 16);
    const double rwiWait = rwi.breakdown().fraction(TimeCat::WaitLock);
    const double rwilWait = rwil.breakdown().fraction(TimeCat::WaitLock);
    EXPECT_LE(rwilWait, rwiWait) << w;
  }
}

// Fig 10: HTMLock eliminates `mutex` aborts entirely; switchingMode slashes
// `of` aborts (2 threads).
TEST(Fig10, HtmLockEliminatesMutexAborts) {
  for (const char* w : {"intruder", "yada", "labyrinth"}) {
    const auto base = run("Baseline", w, 2);
    const auto rwil = run("Lockiller-RWIL", w, 2);
    EXPECT_GT(base.abortCount(AbortCause::Mutex) +
                  base.abortCount(AbortCause::LockConflict),
              0u)
        << w << ": baseline should see fallback-induced aborts";
    EXPECT_EQ(rwil.abortCount(AbortCause::Mutex), 0u) << w;
  }
}

TEST(Fig10, SwitchingModeReducesOverflowAborts) {
  const auto rwil = run("Lockiller-RWIL", "labyrinth", 2);
  const auto lk = run("LockillerTM", "labyrinth", 2);
  EXPECT_LT(lk.abortCount(AbortCause::Overflow),
            rwil.abortCount(AbortCause::Overflow));
  EXPECT_GT(lk.stlCommits(), 0u);
  EXPECT_GT(lk.switchGrants(), 0u);
}

// Fig 11: successful switches appear as `switchLock` execution time.
TEST(Fig11, SwitchLockTimeAppears) {
  const auto lk = run("LockillerTM", "labyrinth", 2);
  EXPECT_GT(lk.breakdown().cycles[static_cast<std::size_t>(TimeCat::SwitchLock)], 0u);
}

// Fig 12: LockillerTM edges out the LosaTM-SAFU comparator on average.
TEST(Fig12, LockillerBeatsLosaOnAverage) {
  double geoLk = 1.0, geoLosa = 1.0;
  int n = 0;
  for (const char* w : {"intruder", "kmeans+", "vacation+", "genome"}) {
    const auto cgl = run("CGL", w, 8);
    const auto losa = run("LosaTM-SAFU", w, 8);
    const auto lk = run("LockillerTM", w, 8);
    geoLk *= speedup(cgl, lk);
    geoLosa *= speedup(cgl, losa);
    ++n;
  }
  EXPECT_GT(std::pow(geoLk, 1.0 / n), std::pow(geoLosa, 1.0 / n));
}

// Fig 13: the small-cache configuration widens LockillerTM's advantage over
// the baseline on overflow-prone workloads.
TEST(Fig13, AdvantageHoldsInSmallAndLargeCaches) {
  // The paper's Fig 13 claim: in BOTH the small (8KB L1) and large (128KB L1)
  // configurations, LockillerTM's average speedup beats coarse-grained
  // locking and requester-win best-effort HTM.
  for (auto machine : {MachineParams::smallCache(), MachineParams::largeCache()}) {
    double cglCycles = 0.0, baseCycles = 0.0, lkCycles = 0.0;
    for (const char* w : {"intruder", "kmeans+", "vacation+", "labyrinth"}) {
      cglCycles += static_cast<double>(run("CGL", w, 8, machine).cycles);
      baseCycles += static_cast<double>(run("Baseline", w, 8, machine).cycles);
      lkCycles += static_cast<double>(run("LockillerTM", w, 8, machine).cycles);
    }
    EXPECT_LT(lkCycles, cglCycles) << machine.name;
    EXPECT_LT(lkCycles, baseCycles) << machine.name;
  }
}

}  // namespace
}  // namespace lktm::cfg
