// Instruction-semantics and transactional-control tests for the bytecode CPU,
// run on the real memory hierarchy.
#include <gtest/gtest.h>

#include "cpu_harness.hpp"
#include "cpu/program.hpp"

namespace lktm::test {
namespace {

using cpu::Op;
using cpu::ProgramBuilder;

constexpr Addr kOut = 0x20000;  // result mailbox

// -------------------------------------------------------------------- ALU

struct AluCase {
  const char* name;
  Op op;
  std::uint64_t a, b;
  std::uint64_t expect;
};

// Without this gtest prints the raw bytes, which include the name pointer and
// padding, so the listed test names would change from one build to the next.
void PrintTo(const AluCase& tc, std::ostream* os) { *os << tc.name; }

class AluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluTest, ComputesAndStores) {
  const AluCase& tc = GetParam();
  ProgramBuilder b;
  b.li(1, static_cast<std::int64_t>(tc.a));
  b.li(2, static_cast<std::int64_t>(tc.b));
  b.emit({tc.op, 3, 1, 2, 0});
  b.li(4, kOut);
  b.store(4, 3);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), tc.expect) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluTest,
    ::testing::Values(
        AluCase{"add", Op::Add, 5, 7, 12},
        AluCase{"add_wraps", Op::Add, ~0ull, 1, 0},
        AluCase{"sub", Op::Sub, 10, 4, 6},
        AluCase{"sub_underflow", Op::Sub, 3, 5, ~0ull - 1},
        AluCase{"mul", Op::Mul, 6, 7, 42},
        AluCase{"and", Op::AndB, 0b1100, 0b1010, 0b1000},
        AluCase{"or", Op::OrB, 0b1100, 0b1010, 0b1110},
        AluCase{"xor", Op::XorB, 0b1100, 0b1010, 0b0110},
        AluCase{"shl", Op::Shl, 1, 12, 4096},
        AluCase{"shl_mask", Op::Shl, 1, 64, 1},  // shift amount & 63
        AluCase{"shr", Op::Shr, 4096, 12, 1},
        AluCase{"rem", Op::Rem, 17, 5, 2}),
    [](const auto& info) { return info.param.name; });

TEST(CpuBasics, LiMovAddi) {
  ProgramBuilder b;
  b.li(1, 100);
  b.mov(2, 1);
  b.addi(2, 2, -58);
  b.li(4, kOut);
  b.store(4, 2);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 42u);
}

TEST(CpuBasics, RegisterZeroIsHardwired) {
  ProgramBuilder b;
  b.li(0, 77);  // write to r0 is discarded
  b.li(4, kOut);
  b.store(4, 0);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 0u);
}

TEST(CpuBasics, BranchLoopSumsOneToTen) {
  ProgramBuilder b;
  b.li(1, 0);   // i
  b.li(2, 0);   // sum
  b.li(3, 10);  // bound
  const auto loop = b.here();
  b.addi(1, 1, 1);
  b.add(2, 2, 1);
  const auto back = b.blt(1, 3);
  b.patchTarget(back, loop);
  b.li(4, kOut);
  b.store(4, 2);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 55u);
}

TEST(CpuBasics, LoadStoreRoundTrip) {
  ProgramBuilder b;
  b.li(1, 0x30000);
  b.li(2, 1234);
  b.store(1, 2, 8);
  b.load(3, 1, 8);
  b.li(4, kOut);
  b.store(4, 3);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 1234u);
  EXPECT_EQ(h.read(0x30008), 1234u);
}

TEST(CpuBasics, LoadSeesInitializedMemory) {
  CpuHarness h(1);
  h.sys().memory().writeWord(0x40000, 4242);
  ProgramBuilder b;
  b.li(1, 0x40000);
  b.load(2, 1);
  b.li(4, kOut);
  b.store(4, 2);
  b.barrier();
  b.halt();
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 4242u);
}

TEST(CpuBasics, CasSuccessAndFailure) {
  CpuHarness h(1);
  h.sys().memory().writeWord(0x50000, 7);
  ProgramBuilder b;
  b.li(1, 0x50000);
  // CAS expecting 7, desired 9 -> succeeds, old value 7.
  b.li(2, 7);
  b.li(3, 9);
  b.cas(3, 1, 2);
  b.li(4, kOut);
  b.store(4, 3);  // old value (7)
  // CAS expecting 7 again -> fails (now 9), old value 9, memory unchanged.
  b.li(2, 7);
  b.li(3, 11);
  b.cas(3, 1, 2);
  b.li(4, kOut + 8);
  b.store(4, 3);
  b.barrier();
  b.halt();
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 7u);
  EXPECT_EQ(h.read(kOut + 8), 9u);
  EXPECT_EQ(h.read(0x50000), 9u);
}

TEST(CpuBasics, ComputeCostsCycles) {
  ProgramBuilder a, b;
  a.compute(1000);
  a.barrier();
  a.halt();
  b.barrier();
  b.halt();
  CpuHarness h1(1);
  h1.setProgram(0, a.build());
  h1.run();
  CpuHarness h2(1);
  h2.setProgram(0, b.build());
  h2.run();
  EXPECT_GE(h1.cpu(0).haltedAt(), h2.cpu(0).haltedAt() + 999);
}

TEST(CpuBasics, DelayRegUsesRegisterValue) {
  ProgramBuilder b;
  b.li(1, 500);
  b.delayReg(1);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_GE(h.cpu(0).haltedAt(), 500u);
  EXPECT_LE(h.cpu(0).haltedAt(), 600u);
}

TEST(CpuBasics, InstsRetiredCounts) {
  ProgramBuilder b;
  b.li(1, 1);
  b.li(2, 2);
  b.add(3, 1, 2);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.cpu(0).instsRetired(), 4u);  // halt does not retire
}

// ------------------------------------------------------------ HTM control

TEST(CpuTx, CommitMakesStoresVisible) {
  ProgramBuilder b;
  b.xbegin(10);
  b.li(1, kOut);
  b.li(2, 5);
  b.store(1, 2);
  b.xend();
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 5u);
  EXPECT_EQ(h.cpu(0).txCounters().htmCommits, 1u);
  EXPECT_EQ(h.cpu(0).txCounters().aborts, 0u);
}

TEST(CpuTx, ExplicitAbortRollsBackAndDeliversStatus) {
  // xbegin; store 5; xabort. On resume status != started -> skip the abort
  // path and store the status code instead.
  ProgramBuilder b;
  b.li(5, 0);  // attempt counter
  b.xbegin(10);
  b.li(1, static_cast<std::int64_t>(cpu::kTxStarted));
  const auto resumed = b.bne(10, 1);
  b.li(1, kOut);
  b.li(2, 5);
  b.store(1, 2);
  b.xabort(0x7);  // Explicit
  const auto after = b.here();
  b.patchTarget(resumed, after);
  b.li(1, kOut + 8);
  b.store(1, 10);  // status register
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 0u) << "speculative store must not be visible";
  EXPECT_EQ(h.read(kOut + 8), cpu::statusOf(AbortCause::Explicit));
  EXPECT_EQ(h.cpu(0).txCounters().aborts, 1u);
  EXPECT_EQ(h.cpu(0).txCounters().abortCount(AbortCause::Explicit), 1u);
}

TEST(CpuTx, AbortRestoresRegisters) {
  ProgramBuilder b;
  b.li(3, 111);  // live-in
  b.xbegin(10);
  b.li(1, static_cast<std::int64_t>(cpu::kTxStarted));
  const auto resumed = b.bne(10, 1);
  b.li(3, 999);  // clobber inside the tx
  b.xabort(0x7);
  const auto after = b.here();
  b.patchTarget(resumed, after);
  b.li(1, kOut);
  b.store(1, 3);  // must be the pre-tx value
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 111u);
}

TEST(CpuTx, NestedTransactionsFlatten) {
  ProgramBuilder b;
  b.xbegin(10);
  b.xbegin(11);
  b.ttest(12);  // depth 2
  b.li(1, kOut);
  b.store(1, 12);
  b.xend();
  b.ttest(12);  // depth 1
  b.li(1, kOut + 8);
  b.store(1, 12);
  b.xend();
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 2u);
  EXPECT_EQ(h.read(kOut + 8), 1u);
  EXPECT_EQ(h.cpu(0).txCounters().htmCommits, 1u);  // one flat commit
}

TEST(CpuTx, SyscallAbortsHtmWithFault) {
  ProgramBuilder b;
  b.xbegin(10);
  b.li(1, static_cast<std::int64_t>(cpu::kTxStarted));
  const auto resumed = b.bne(10, 1);
  b.syscall();
  b.xend();  // unreachable
  const auto after = b.here();
  b.patchTarget(resumed, after);
  b.li(1, kOut);
  b.store(1, 10);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), cpu::statusOf(AbortCause::Fault));
  EXPECT_EQ(h.cpu(0).txCounters().abortCount(AbortCause::Fault), 1u);
}

TEST(CpuTx, SyscallOutsideTxJustCosts) {
  ProgramBuilder b;
  b.syscall();
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_GE(h.cpu(0).haltedAt(), 100u);
}

TEST(CpuTx, TtestOutsideTxIsZero) {
  ProgramBuilder b;
  b.ttest(2);
  b.li(1, kOut);
  b.addi(2, 2, 1);  // store depth+1 to distinguish from untouched memory
  b.store(1, 2);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  EXPECT_EQ(h.read(kOut), 1u);
}

// --------------------------------------------------------------- barriers

TEST(CpuBarrier, SynchronizesAllThreads) {
  // Thread 0 computes long, thread 1 waits at the barrier for it.
  ProgramBuilder a;
  a.compute(2000);
  a.barrier();
  a.halt();
  ProgramBuilder b;
  b.barrier();
  b.halt();
  CpuHarness h(2);
  h.setProgram(0, a.build());
  h.setProgram(1, b.build());
  h.run();
  EXPECT_GE(h.cpu(1).haltedAt(), 2000u);
  EXPECT_EQ(h.barrier().episodes(), 1u);
}

TEST(CpuBarrier, MultiplePhases) {
  ProgramBuilder a;
  for (int i = 0; i < 3; ++i) {
    a.compute(50);
    a.barrier();
  }
  a.halt();
  ProgramBuilder b;
  for (int i = 0; i < 3; ++i) b.barrier();
  b.halt();
  CpuHarness h(2);
  h.setProgram(0, a.build());
  h.setProgram(1, b.build());
  h.run();
  EXPECT_EQ(h.barrier().episodes(), 3u);
}

// ------------------------------------------------------------- breakdown

TEST(CpuStats, BreakdownCoversWholeRun) {
  ProgramBuilder b;
  b.mark(TimeCat::NonTran);
  b.compute(100);
  b.xbegin(10);
  b.li(1, kOut);
  b.li(2, 1);
  b.store(1, 2);
  b.xend();
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  auto& bd = h.cpu(0).breakdown();
  EXPECT_EQ(bd.total(), h.cpu(0).haltedAt());
  EXPECT_GT(bd.get(TimeCat::Htm), 0u);
  EXPECT_GT(bd.get(TimeCat::NonTran), 100u);
  EXPECT_EQ(bd.get(TimeCat::Aborted), 0u);
}

TEST(CpuStats, AbortedAttemptCountedAsAbortedPlusRollback) {
  ProgramBuilder b;
  b.xbegin(10);
  b.li(1, static_cast<std::int64_t>(cpu::kTxStarted));
  const auto resumed = b.bne(10, 1);
  b.compute(300);
  b.xabort(0x7);
  const auto after = b.here();
  b.patchTarget(resumed, after);
  b.barrier();
  b.halt();
  CpuHarness h(1);
  h.setProgram(0, b.build());
  h.run();
  auto& bd = h.cpu(0).breakdown();
  EXPECT_GE(bd.get(TimeCat::Aborted), 300u);
  EXPECT_GT(bd.get(TimeCat::Rollback), 0u);
  EXPECT_EQ(bd.get(TimeCat::Htm), 0u);
}

}  // namespace
}  // namespace lktm::test
