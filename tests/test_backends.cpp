// The pluggable TM-backend layer (src/runtime/backends): registry contracts,
// the backend each system row names, pinned digests of every emitted
// program, TL2 orec algebra and commit/abort accounting, hybrid HTM+STM
// mixing, and host-thread-count independence of the backend sweep rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "config/systems.hpp"
#include "runtime/backends/backend.hpp"
#include "runtime/backends/tl2.hpp"
#include "workloads/db_traffic.hpp"
#include "workloads/micro.hpp"
#include "workloads/workload.hpp"

namespace lktm::tm {
namespace {

cfg::RunResult runMicro(const std::string& system, unsigned threads,
                        const std::function<std::unique_ptr<wl::Workload>()>& mk) {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName(system);
  rc.threads = threads;
  return cfg::runSimulation(rc, mk);
}

// ---------------------------------------------------------------- registry

TEST(BackendRegistry, NamesRowsAndLookups) {
  const auto names = backendNames();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "lockiller");
  EXPECT_EQ(names[1], "cgl");
  EXPECT_EQ(names[2], "tl2");
  EXPECT_EQ(names[3], "hybrid");
  for (const std::string& n : names) {
    EXPECT_TRUE(isBackendName(n)) << n;
    EXPECT_NE(backendNameList().find(n), std::string::npos) << n;
  }
  EXPECT_FALSE(isBackendName("stm"));
}

TEST(BackendRegistry, UnknownNameThrows) {
  EXPECT_THROW(makeBackend("no-such-backend", BackendConfig{}),
               std::invalid_argument);
  EXPECT_FALSE(isBackendName("no-such-backend"));
}

TEST(BackendRegistry, DefaultFollowsPolicy) {
  core::TmPolicy htm;  // htmEnabled defaults true
  EXPECT_EQ(defaultBackendFor(htm), "lockiller");
  core::TmPolicy cglOnly;
  cglOnly.htmEnabled = false;
  EXPECT_EQ(defaultBackendFor(cglOnly), "cgl");
}

TEST(BackendRegistry, HybridRequiresHtm) {
  BackendConfig bc;
  bc.policy.htmEnabled = false;
  bc.lockAddr = wl::kFallbackLockAddr;
  EXPECT_THROW(makeBackend("hybrid", bc), std::invalid_argument);
}

// ------------------------------------------------- pinned program digests

// FNV-1a (64-bit) over (op, rd, rs1, rs2, imm) of every instruction, imm as
// eight little-endian bytes.
std::uint64_t programDigest(std::uint64_t h, const cpu::Program& p) {
  const auto mix = [&h](std::uint64_t v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const cpu::Instr& i : p.code) {
    mix(static_cast<std::uint64_t>(i.op), 1);
    mix(i.rd, 1);
    mix(i.rs1, 1);
    mix(i.rs2, 1);
    mix(static_cast<std::uint64_t>(i.imm), 8);
  }
  return h;
}

using WorkloadFactory = std::function<std::unique_ptr<wl::Workload>()>;

/// Every STAMP analog, db-traffic and micro workload; the pointer-chasing
/// one only when the backend supports data-dependent addresses.
std::vector<WorkloadFactory> digestWorkloads(bool pointerChasing) {
  std::vector<WorkloadFactory> out;
  for (const std::string& n : wl::stampNames()) {
    out.emplace_back([n] { return wl::makeStamp(n); });
  }
  for (const std::string& n : wl::dbWorkloadNames()) {
    out.emplace_back([n] { return wl::makeDbWorkload(n, 11); });
  }
  out.emplace_back([] { return wl::makeCounter(4, 2, 64); });
  out.emplace_back([] { return wl::makeBank(16, 64); });
  if (pointerChasing) {
    out.emplace_back([] { return wl::makeLinkedList(16, 4, 32); });
  }
  return out;
}

// Every program any backend emits, pinned: one digest per (backend, policy,
// retry policy) over all workloads that backend accepts, threads 0 and 3 of
// 8. Any change to emitted bytecode — a reordered instruction, a different
// register, a moved branch target — shows up here before it can shift a
// simulated result.
TEST(BackendEmission, ProgramDigestsArePinned) {
  struct Case {
    const char* backend;
    const char* system;  ///< Table II row supplying the policy
  };
  const Case cases[] = {
      {"lockiller", "CGL"},           {"lockiller", "Baseline"},
      {"lockiller", "Lockiller-RWL"}, {"lockiller", "LockillerTM"},
      {"cgl", "LockillerTM"},         {"tl2", "TL2-STM"},
      {"hybrid", "Hybrid-TM"},
  };
  rt::RetryPolicy tas;
  tas.cglLock = rt::LockImpl::TestAndSet;
  rt::RetryPolicy noSkip;
  noSkip.skipRetriesOnPersistent = false;
  const std::pair<const char*, rt::RetryPolicy> retries[] = {
      {"default", rt::RetryPolicy{}}, {"tas", tas}, {"no-skip", noSkip}};
  // [case][retry policy]
  const std::uint64_t expected[7][3] = {
      {0x5bd1428f86f5606dULL, 0xb7631ea9cbe47f4cULL, 0x5bd1428f86f5606dULL},
      {0xf81d379973aec58aULL, 0xf81d379973aec58aULL, 0xc091648c512f4bc6ULL},
      {0x41cb7807e5a9f6acULL, 0x41cb7807e5a9f6acULL, 0xcc94ad3b248e3bc7ULL},
      {0x41cb7807e5a9f6acULL, 0x41cb7807e5a9f6acULL, 0xcc94ad3b248e3bc7ULL},
      {0x5bd1428f86f5606dULL, 0xb7631ea9cbe47f4cULL, 0x5bd1428f86f5606dULL},
      {0xde72b49f9f376798ULL, 0xde72b49f9f376798ULL, 0xde72b49f9f376798ULL},
      {0xbcc2503db15403e5ULL, 0xbcc2503db15403e5ULL, 0xf35cc8d8d92c58bfULL},
  };
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const std::string be = cases[c].backend;
    for (std::size_t r = 0; r < std::size(retries); ++r) {
      BackendConfig bc;
      bc.policy = cfg::systemByName(cases[c].system).policy;
      bc.retry = retries[r].second;
      bc.lockAddr = wl::kFallbackLockAddr;
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const WorkloadFactory& make :
           digestWorkloads(be != "tl2" && be != "hybrid")) {
        mem::MainMemory memory;
        auto w = make();
        w->init(memory, 8);
        auto backend = makeBackend(be, bc);
        for (unsigned tid : {0u, 3u}) {
          h = programDigest(h, w->buildProgram(tid, 8, *backend));
        }
      }
      EXPECT_EQ(h, expected[c][r])
          << be << " / " << cases[c].system << " / " << retries[r].first
          << ": actual 0x" << std::hex << h;
    }
  }
}

// ----------------------------------------------------------- TL2 orec math

TEST(Tl2, OrecEncodingWrapsAtMaxVersion) {
  EXPECT_EQ(orecVersion(encodeOrec(7)), 7u);
  EXPECT_FALSE(orecLocked(encodeOrec(7)));
  // Version overflow wraps through the lock bit instead of setting it.
  EXPECT_EQ(encodeOrec(kMaxOrecVersion + 1), 0u);
  EXPECT_FALSE(orecLocked(encodeOrec(kMaxOrecVersion + 1)));
  EXPECT_EQ(orecVersion(encodeOrec(kMaxOrecVersion)), kMaxOrecVersion);
  // Lock words are odd, owner-distinct, never version-shaped.
  EXPECT_TRUE(orecLocked(orecLockWord(0)));
  EXPECT_TRUE(orecLocked(orecLockWord(31)));
  EXPECT_NE(orecLockWord(0), orecLockWord(1));
}

TEST(Tl2, OrecTableMapsWholeLinesInsideScratch) {
  for (const Addr a : {Addr{0}, Addr{0x1234}, Addr{0xfffff8}, Addr{1} << 29}) {
    const Addr oa = orecAddrOf(a);
    EXPECT_GE(oa, kOrecBase);
    EXPECT_LT(oa, kOrecBase + kNumOrecs * kLineBytes);
    // One orec per cache line: all words of a line share the stripe.
    EXPECT_EQ(orecAddrOf(a), orecAddrOf((a & ~Addr{kLineBytes - 1}) + 8));
  }
}

TEST(Tl2, RejectsDataDependentAddresses) {
  BackendConfig bc;
  bc.policy.htmEnabled = false;
  bc.lockAddr = wl::kFallbackLockAddr;
  auto tl2 = makeBackend("tl2", bc);
  cpu::ProgramBuilder pb;
  EXPECT_THROW(tl2->emitReadDyn(pb, 10, 11, 0), std::invalid_argument);
  EXPECT_THROW(tl2->emitWriteDyn(pb, 10, 11, 0), std::invalid_argument);
  // End to end: the pointer-chasing workload cannot build on the STM row.
  EXPECT_THROW(runMicro("TL2-STM", 2, [] { return wl::makeLinkedList(16, 3, 16); }),
               std::invalid_argument);
}

// -------------------------------------------------------- TL2 end to end

TEST(Tl2, CommitsAreSoftwareAndInvariantsHold) {
  const auto r = runMicro("TL2-STM", 4, [] { return wl::makeCounter(4, 2, 96); });
  ASSERT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.backend, "tl2");
  EXPECT_GT(r.stmCommits(), 0u);
  EXPECT_EQ(r.htmCommits(), 0u);
  EXPECT_EQ(r.lockCommits(), 0u);
  EXPECT_EQ(r.stlCommits(), 0u);
  EXPECT_EQ(r.totalCommits(), r.stmCommits());
}

TEST(Tl2, ContentionAbortsAreCountedButHarmless) {
  // Maximum contention: every transaction increments the same single cell,
  // so commit-time lock/validation conflicts are guaranteed at 4 threads.
  const auto r = runMicro("TL2-STM", 4, [] { return wl::makeCounter(1, 1, 96); });
  ASSERT_TRUE(r.ok()) << r.str();
  EXPECT_GT(r.stmCommits(), 0u);
  EXPECT_GT(r.aborts(), 0u);
  EXPECT_GT(r.abortCount(AbortCause::LockConflict) +
                r.abortCount(AbortCause::MemConflict),
            0u);
  EXPECT_LT(r.commitRate().value(), 1.0);
}

TEST(Tl2, BankTransfersStayAtomic) {
  const auto r = runMicro("TL2-STM", 4, [] { return wl::makeBank(8, 128); });
  ASSERT_TRUE(r.ok()) << r.str();  // verify() checks balance conservation
  EXPECT_GT(r.stmCommits(), 0u);
}

// A one-thread workload whose transaction writes A, then B, then A again:
// pins the redo log's program-order writeback with last-wins semantics.
class RewriteWorkload : public wl::Workload {
 public:
  std::string name() const override { return "rewrite"; }
  void init(mem::MainMemory&, unsigned) override {}
  Addr footprintEnd() const override { return kA + kLineBytes; }
  cpu::Program buildProgram(unsigned tid, unsigned,
                            tm::Backend& backend) override {
    cpu::ProgramBuilder pb;
    backend.emitProgramStart(pb, tid, 1);
    backend.emitTransaction(pb, [&](cpu::ProgramBuilder& b) {
      pb.li(11, 5);
      backend.emitWrite(b, kA, 10, 11);
      pb.li(11, 6);
      backend.emitWrite(b, kB, 10, 11);
      pb.li(11, 7);
      backend.emitWrite(b, kA, 10, 11);
    });
    pb.halt();
    return pb.build();
  }
  std::vector<std::string> verify(const wl::WordReader& read,
                                  unsigned) const override {
    std::vector<std::string> v;
    if (read(kA) != 7) v.push_back("A: rewrite lost (want 7)");
    if (read(kB) != 6) v.push_back("B: write lost (want 6)");
    return v;
  }
  // Same line on purpose: the second A-write must reuse the A redo slot.
  static constexpr Addr kA = 0x20000;
  static constexpr Addr kB = 0x20008;
};

TEST(Tl2, RedoLogWritebackIsLastWins) {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName("TL2-STM");
  rc.threads = 1;
  const auto r = cfg::runSimulation(rc, [] { return std::make_unique<RewriteWorkload>(); });
  ASSERT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.stmCommits(), 1u);
}

// The runner must refuse to aim an STM backend at a workload whose data
// footprint would alias the orec/clock/redo metadata region.
class HugeFootprintWorkload final : public RewriteWorkload {
 public:
  Addr footprintEnd() const override { return kStmScratchBase + kLineBytes; }
};

TEST(Tl2, ScratchCollisionIsRejected) {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName("TL2-STM");
  rc.threads = 1;
  EXPECT_THROW(
      cfg::runSimulation(rc, [] { return std::make_unique<HugeFootprintWorkload>(); }),
      std::invalid_argument);
}

// ------------------------------------------------------------ hybrid row

TEST(Hybrid, CommitsInHardwareWithSoftwareFallback) {
  const auto r = runMicro("Hybrid-TM", 4, [] { return wl::makeCounter(4, 2, 96); });
  ASSERT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(r.backend, "hybrid");
  // No global-lock path exists in the hybrid: commits are HTM or TL2.
  EXPECT_EQ(r.lockCommits(), 0u);
  EXPECT_EQ(r.stlCommits(), 0u);
  EXPECT_GT(r.htmCommits() + r.stmCommits(), 0u);
  EXPECT_GT(r.htmCommits(), 0u) << "low contention should mostly commit in HTM";
}

TEST(Hybrid, HighContentionExercisesTheStmFallback) {
  const auto r = runMicro("Hybrid-TM", 8, [] { return wl::makeCounter(1, 1, 192); });
  ASSERT_TRUE(r.ok()) << r.str();
  EXPECT_GT(r.htmCommits() + r.stmCommits(), 0u);
  EXPECT_GT(r.aborts(), 0u);
  EXPECT_EQ(r.totalCommits(), r.htmCommits() + r.stmCommits());
}

TEST(Hybrid, BankTransfersStayAtomic) {
  const auto r = runMicro("Hybrid-TM", 4, [] { return wl::makeBank(8, 128); });
  ASSERT_TRUE(r.ok()) << r.str();
}

TEST(Backends, RunsAreDeterministic) {
  for (const char* system : {"TL2-STM", "Hybrid-TM"}) {
    const auto mk = [] { return wl::makeBank(8, 96); };
    const auto a = runMicro(system, 4, mk);
    const auto b = runMicro(system, 4, mk);
    ASSERT_TRUE(a.ok()) << a.str();
    EXPECT_EQ(a.cycles, b.cycles) << system;
    EXPECT_TRUE(a.stats == b.stats) << system;
  }
}

TEST(Backends, EveryRowNamesItsBackend) {
  const std::vector<cfg::SystemSpec> rows = cfg::evaluatedSystems();
  ASSERT_EQ(rows.size(), 11u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const cfg::SystemSpec& s = rows[i];
    const std::string backend = s.backendName();
    EXPECT_TRUE(isBackendName(backend)) << s.name << ": " << backend;
    sim::SimContext ctx;
    const cfg::RunResult r =
        cfg::runSpec({s.name, "counter", "typical", 2, cfg::kDefaultSweepSeed}, {}, ctx);
    ASSERT_TRUE(r.ok()) << r.str();
    EXPECT_EQ(r.backend, backend) << s.name;
    if (i < 9) {
      // The paper's rows run their policy's runtime: the choice the
      // benchmark's own fallback makes for a row whose `backend` is empty.
      EXPECT_TRUE(s.backend.empty()) << s.name;
      EXPECT_EQ(backend, defaultBackendFor(s.policy)) << s.name;
    } else {
      EXPECT_EQ(backend, s.backend) << s.name;
    }
  }
}

// ------------------------------------------------------- machine suffix

TEST(MachineSuffix, UnknownBackendNamesAreRejected) {
  // No machine picks a backend: "-be=NAME" is no suffix, whatever the name.
  for (const std::string& name : backendNames()) {
    EXPECT_THROW(cfg::machineByName("typical-be=" + name), std::invalid_argument) << name;
  }
  EXPECT_THROW(cfg::machineByName("typical-be=vaporware"), std::invalid_argument);
}

// ------------------------------------------------------------- sweep rows

TEST(BackendSweep, ResultsIndependentOfHostThreads) {
  // The backend Table II rows inherit the sweep determinism contract: the
  // same manifest merged from 1, 2 or 4 worker threads is bit-identical.
  std::vector<cfg::RunResult> reference;
  for (const unsigned hostThreads : {1u, 2u, 4u}) {
    cfg::SweepManifest m =
        cfg::makeManifest("", "typical", {"TL2-STM", "Hybrid-TM"},
                          {"counter", "bank"}, {2}, cfg::kDefaultSweepSeed);
    cfg::OrchestratorOptions opts;
    opts.hostThreads = hostThreads;
    std::vector<cfg::RunResult> results;
    cfg::runManifest(m, "", opts, {}, &results);
    ASSERT_EQ(results.size(), 4u);
    for (const auto& r : results) {
      EXPECT_TRUE(r.ok()) << r.str();
      EXPECT_GT(r.stmCommits() + r.htmCommits(), 0u) << r.str();
    }
    if (reference.empty()) {
      reference = std::move(results);
      continue;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[i].cycles, reference[i].cycles)
          << "hostThreads=" << hostThreads << " job " << i;
      EXPECT_TRUE(results[i].stats == reference[i].stats)
          << "snapshot diverged at hostThreads=" << hostThreads << " job " << i;
    }
  }
}

}  // namespace
}  // namespace lktm::tm
