// The software layer: Listing 1 / Listing 2 codegen of the lock-elision
// backend, lock implementations, retry strategy — validated structurally and
// end-to-end on real CPUs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cpu_harness.hpp"
#include "runtime/backends/lockiller.hpp"
#include "workloads/address_space.hpp"

namespace lktm::test {
namespace {

using cpu::Op;
using cpu::ProgramBuilder;

constexpr Addr kCounter = 0x100000;

/// The lock-elision backend the runner would pick for `policy`.
std::unique_ptr<tm::Backend> backendFor(const core::TmPolicy& policy,
                                        const rt::RetryPolicy& retry = {}) {
  return tm::makeBackend(tm::defaultBackendFor(policy),
                         tm::BackendConfig{policy, retry, wl::kFallbackLockAddr});
}

core::TmPolicy cglPolicy() {
  core::TmPolicy p;
  p.htmEnabled = false;
  return p;
}

void emitIncrement(ProgramBuilder& b) {
  b.li(1, kCounter);
  b.load(2, 1);
  b.addi(2, 2, 1);
  b.store(1, 2);
}

cpu::Program incrementProgram(tm::Backend& backend, unsigned tid,
                              unsigned iters) {
  ProgramBuilder b;
  backend.emitProgramStart(b, tid, 4);
  b.mark(TimeCat::NonTran);
  b.compute(static_cast<std::int64_t>(5 + 3 * tid));
  for (unsigned i = 0; i < iters; ++i) {
    backend.emitTransaction(b, emitIncrement);
    b.compute(15);
  }
  b.barrier();
  b.halt();
  return b.build();
}

unsigned countOps(const cpu::Program& p, Op op) {
  unsigned n = 0;
  for (const auto& i : p.code) n += i.op == op;
  return n;
}

// ------------------------------------------------------------- structural

TEST(Runtime, KindSelection) {
  // HTM disabled: CGL, no speculation.
  const auto cgl = incrementProgram(*backendFor(cglPolicy()), 0, 1);
  EXPECT_EQ(countOps(cgl, Op::XBegin), 0u);
  EXPECT_EQ(countOps(cgl, Op::HlBegin), 0u);
  // Plain HTM: best effort, subscribing the lock word (xabort if held).
  const auto base = incrementProgram(*backendFor(core::TmPolicy{}), 0, 1);
  EXPECT_EQ(countOps(base, Op::XBegin), 1u);
  EXPECT_EQ(countOps(base, Op::XAbort), 1u);
  EXPECT_EQ(countOps(base, Op::HlBegin), 0u);
  // HTMLock: hlbegin fallback, no subscription.
  core::TmPolicy hl;
  hl.htmLock = true;
  const auto htmLock = incrementProgram(*backendFor(hl), 0, 1);
  EXPECT_EQ(countOps(htmLock, Op::XBegin), 1u);
  EXPECT_EQ(countOps(htmLock, Op::XAbort), 0u);
  EXPECT_EQ(countOps(htmLock, Op::HlBegin), 1u);
}

TEST(Runtime, CglUsesNoTransactions) {
  const auto p = incrementProgram(*backendFor(cglPolicy()), 0, 1);
  EXPECT_EQ(countOps(p, Op::XBegin), 0u);
  EXPECT_EQ(countOps(p, Op::HlBegin), 0u);
  EXPECT_GT(countOps(p, Op::Cas), 0u);  // lock acquisition
}

TEST(Runtime, BestEffortSubscribesAndAbortsOnHeldLock) {
  // Listing 1 lines 8-9: load of the lock word inside the tx + xabort.
  const auto p = incrementProgram(*backendFor(core::TmPolicy{}), 0, 1);
  EXPECT_EQ(countOps(p, Op::XBegin), 1u);
  EXPECT_EQ(countOps(p, Op::XAbort), 1u);
  EXPECT_EQ(countOps(p, Op::HlBegin), 0u);
  EXPECT_EQ(countOps(p, Op::TTest), 0u);
}

TEST(Runtime, HtmLockDoesNotSubscribeAndUsesListing2) {
  // The grey modifications: no lock-word subscription (no xabort), hlbegin
  // on the fallback path, ttest-dispatched release.
  const auto p = incrementProgram(*backendFor(htmLockPolicy()), 0, 1);
  EXPECT_EQ(countOps(p, Op::XBegin), 1u);
  EXPECT_EQ(countOps(p, Op::XAbort), 0u);
  EXPECT_EQ(countOps(p, Op::HlBegin), 1u);
  EXPECT_EQ(countOps(p, Op::HlEnd), 2u);  // STL and TL branches
  EXPECT_EQ(countOps(p, Op::TTest), 1u);
}

TEST(Runtime, McsNodesAreDistinctLines) {
  // Each thread's MCS queue node is the immediate of the prologue's
  // `li r26` (tm::kRegMcsNode).
  auto backend = backendFor(cglPolicy());
  std::vector<Addr> nodes;
  for (unsigned tid = 0; tid < 32; ++tid) {
    ProgramBuilder b;
    backend->emitProgramStart(b, tid, 32);
    const cpu::Program p = b.build();
    const auto li = std::find_if(p.code.begin(), p.code.end(), [](const cpu::Instr& i) {
      return i.op == Op::Li && i.rd == tm::kRegMcsNode;
    });
    ASSERT_NE(li, p.code.end()) << "tid " << tid;
    nodes.push_back(static_cast<Addr>(li->imm));
  }
  EXPECT_NE(lineOf(nodes[0]), lineOf(wl::kFallbackLockAddr));
  for (unsigned a = 0; a < 32; ++a) {
    for (unsigned b = a + 1; b < 32; ++b) {
      EXPECT_NE(lineOf(nodes[a]), lineOf(nodes[b]));
    }
  }
}

// -------------------------------------------------------------- end-to-end

/// The three flavours of the lock-elision backend.
enum class Flavour : std::uint8_t { Cgl, BestEffort, HtmLock };

class RuntimeE2E : public ::testing::TestWithParam<Flavour> {};

TEST_P(RuntimeE2E, CriticalSectionsExecuteExactlyOnce) {
  const Flavour flavour = GetParam();
  TestSystemOptions opt;
  opt.cores = 4;
  opt.policy = flavour == Flavour::HtmLock ? htmLockPolicy(true) : recoveryPolicy();
  if (flavour == Flavour::Cgl) opt.policy.htmEnabled = false;
  auto backend = backendFor(opt.policy);
  CpuHarness h(4, opt);
  const unsigned iters = 20;
  for (CoreId c = 0; c < 4; ++c) {
    h.setProgram(c, incrementProgram(*backend, static_cast<unsigned>(c), iters));
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 4u * iters);
  h.sys().expectCoherent();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RuntimeE2E,
                         ::testing::Values(Flavour::Cgl, Flavour::BestEffort,
                                           Flavour::HtmLock),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case Flavour::Cgl: return "cgl";
                             case Flavour::BestEffort: return "best_effort";
                             case Flavour::HtmLock: return "htmlock";
                           }
                           return "?";
                         });

TEST(Runtime, TestAndSetCglAlsoCorrect) {
  rt::RetryPolicy retry;
  retry.cglLock = rt::LockImpl::TestAndSet;
  auto backend = backendFor(cglPolicy(), retry);
  TestSystemOptions opt;
  opt.cores = 4;
  opt.policy.htmEnabled = false;
  CpuHarness h(4, opt);
  for (CoreId c = 0; c < 4; ++c) {
    h.setProgram(c, incrementProgram(*backend, static_cast<unsigned>(c), 15));
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 60u);
}

TEST(Runtime, BestEffortFallsBackOnFault) {
  // A syscall inside every critical section: best-effort HTM cannot commit a
  // single one speculatively; all must complete via the fallback lock.
  auto backend = backendFor(core::TmPolicy{});
  TestSystemOptions opt;
  opt.cores = 2;
  CpuHarness h(2, opt);
  for (CoreId c = 0; c < 2; ++c) {
    ProgramBuilder b;
    backend->emitProgramStart(b, static_cast<unsigned>(c), 2);
    for (int i = 0; i < 5; ++i) {
      backend->emitTransaction(b, [](ProgramBuilder& pb) {
        pb.li(1, kCounter);
        pb.load(2, 1);
        pb.addi(2, 2, 1);
        pb.syscall();
        pb.store(1, 2);
      });
    }
    b.barrier();
    b.halt();
    h.setProgram(c, b.build());
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 10u);
  const auto& tx0 = h.cpu(0).txCounters();
  const auto& tx1 = h.cpu(1).txCounters();
  EXPECT_EQ(tx0.htmCommits + tx1.htmCommits, 0u);
  EXPECT_GE(tx0.abortCount(AbortCause::Fault) + tx1.abortCount(AbortCause::Fault), 10u);
}

TEST(Runtime, HtmLockFaultGoesToTlAndSurvives) {
  TestSystemOptions opt;
  opt.cores = 2;
  opt.policy = htmLockPolicy(true);
  auto backend = backendFor(opt.policy);
  CpuHarness h(2, opt);
  for (CoreId c = 0; c < 2; ++c) {
    ProgramBuilder b;
    backend->emitProgramStart(b, static_cast<unsigned>(c), 2);
    for (int i = 0; i < 5; ++i) {
      backend->emitTransaction(b, [](ProgramBuilder& pb) {
        pb.li(1, kCounter);
        pb.load(2, 1);
        pb.addi(2, 2, 1);
        pb.syscall();
        pb.store(1, 2);
      });
    }
    b.barrier();
    b.halt();
    h.setProgram(c, b.build());
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 10u);
  EXPECT_EQ(h.cpu(0).txCounters().lockCommits + h.cpu(1).txCounters().lockCommits,
            10u);
}

TEST(Runtime, SwitchingModeCompletesOverflowingSections) {
  // Critical sections whose write sets overflow a tiny L1: with switchingMode
  // they complete as STL without ever acquiring the software lock.
  TestSystemOptions opt;
  opt.cores = 2;
  opt.policy = htmLockPolicy(true);
  opt.l1 = mem::CacheGeometry{8 * 1024, 4};  // 32 sets
  auto backend = backendFor(opt.policy);
  CpuHarness h(2, opt);
  for (CoreId c = 0; c < 2; ++c) {
    ProgramBuilder b;
    backend->emitProgramStart(b, static_cast<unsigned>(c), 2);
    for (int i = 0; i < 3; ++i) {
      backend->emitTransaction(b, [c](ProgramBuilder& pb) {
        // Six same-set lines (disjoint per core) force an overflow.
        for (int j = 0; j < 6; ++j) {
          pb.li(1, static_cast<std::int64_t>(0x100000 + c * 0x40000 +
                                             static_cast<Addr>(j) * 32 * kLineBytes));
          pb.load(2, 1);
          pb.addi(2, 2, 1);
          pb.store(1, 2);
        }
      });
      b.compute(20);
    }
    b.barrier();
    b.halt();
    h.setProgram(c, b.build());
  }
  h.run();
  for (CoreId c = 0; c < 2; ++c) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(h.read(0x100000 + static_cast<Addr>(c) * 0x40000 +
                       static_cast<Addr>(j) * 32 * kLineBytes),
                3u);
    }
  }
  const auto stl = h.cpu(0).txCounters().stlCommits + h.cpu(1).txCounters().stlCommits;
  EXPECT_GT(stl, 0u) << "switchingMode should have rescued overflow aborts";
}

TEST(Runtime, ZeroMaxRetriesIsRejected) {
  // The attempt budget is decremented before it is tested, so a budget of 0
  // would retry forever and never reach the fallback path: every HTM attempt
  // loop refuses it at emission.
  rt::RetryPolicy retry;
  retry.maxRetries = 0;
  core::TmPolicy htmLock;
  htmLock.htmLock = true;
  const std::pair<const char*, core::TmPolicy> htmBackends[] = {
      {"lockiller", core::TmPolicy{}}, {"lockiller", htmLock}, {"hybrid", {}}};
  for (const auto& [name, policy] : htmBackends) {
    auto backend = tm::makeBackend(
        name, tm::BackendConfig{policy, retry, wl::kFallbackLockAddr});
    ProgramBuilder b;
    backend->emitProgramStart(b, 0, 1);
    EXPECT_THROW(backend->emitTransaction(b, emitIncrement), std::invalid_argument)
        << name << (policy.htmLock ? " (HTMLock)" : "");
  }
  // Coarse-grained locking has no attempt loop, so the budget is unused.
  EXPECT_NO_THROW(incrementProgram(*backendFor(cglPolicy(), retry), 0, 1));
}

TEST(Runtime, RetryExhaustionTakesFallback) {
  // With a single attempt every conflict abort goes straight to the lock.
  rt::RetryPolicy retry;
  retry.maxRetries = 1;
  auto backend = backendFor(core::TmPolicy{}, retry);
  TestSystemOptions opt;
  opt.cores = 4;
  CpuHarness h(4, opt);
  for (CoreId c = 0; c < 4; ++c) {
    h.setProgram(c, incrementProgram(*backend, static_cast<unsigned>(c), 25));
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 100u);
}

}  // namespace
}  // namespace lktm::test
