// In-order, single-issue simulated core (Table I: ARM-like in-order CPU with
// TME-style transactional instructions). Interprets the bytecode ISA,
// checkpoints the register file at xbegin, and resumes at the fallback point
// with the abort cause on rollback — RTM/TME semantics.
#pragma once

#include <array>
#include <vector>

#include "coherence/l1_controller.hpp"
#include "cpu/barrier.hpp"
#include "cpu/program.hpp"
#include "sim/engine.hpp"
#include "stats/breakdown.hpp"

namespace lktm::cpu {

struct CpuParams {
  Cycle rollbackPenalty = 25;  ///< squash + register/cache restore cost
  Cycle faultPenalty = 300;    ///< exception-induced abort: trap + handler + restore
  Cycle syscallCost = 120;     ///< survivable exception service time
  core::PriorityKind priorityKind = core::PriorityKind::None;
  /// Extension ablation: attempt the STL switch on an in-transaction fault
  /// instead of aborting (the paper chooses not to; see TmPolicy).
  bool switchOnFault = false;
};

class Cpu final : private coh::L1Controller::CpuPort {
 public:
  Cpu(sim::SimContext& ctx, CoreId id, coh::L1Controller& l1, BarrierUnit& barrier,
      Program program, CpuParams params);
  ~Cpu();
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Schedule the first instruction.
  void start();

  bool halted() const { return halted_; }
  CoreId id() const { return id_; }
  Cycle haltedAt() const { return haltedAt_; }

  stats::ThreadBreakdown& breakdown() { return bd_; }
  const stats::ThreadBreakdown& breakdown() const { return bd_; }
  stats::TxStats& txCounters() { return l1_.txCounters(); }

  /// Instructions retired since reset (all modes).
  std::uint64_t instsRetired() const { return instsRetired_; }

  std::string diagnostic() const;

 private:
  sim::Engine& engine_;
  CoreId id_;
  coh::L1Controller& l1_;
  BarrierUnit& barrier_;
  Program prog_;
  CpuParams params_;

  std::size_t pc_ = 0;
  std::array<std::uint64_t, kNumRegs> regs_{};
  std::uint64_t epoch_ = 0;  ///< bumped on abort to cancel stale continuations
  bool halted_ = false;
  Cycle haltedAt_ = 0;

  struct Checkpoint {
    std::size_t pc = 0;
    std::array<std::uint64_t, kNumRegs> regs{};
    std::uint8_t statusReg = 0;
  } ckpt_;
  unsigned nestDepth_ = 0;

  std::uint64_t instsInTx_ = 0;   ///< insts-based dynamic priority (paper III-A)
  std::uint64_t memRefsInTx_ = 0; ///< progression-based priority (LosaTM)
  std::uint64_t instsRetired_ = 0;

  stats::ThreadBreakdown bd_;

  /// Commit latency ("core.<id>.latency.commit"): cycles from the first
  /// attempt of a critical section to its commit, spanning aborts, retries
  /// and fallback — the tail-latency view of the lower-bound claim. Inferred
  /// from the instruction stream the backends already emit (xbegin / the
  /// Htm and WaitLock marks open a section; xend / hlend / the lock and STM
  /// commit notes close it), so tracking adds no instructions or cycles.
  stats::Histogram& commitLatency_;
  bool inSection_ = false;
  Cycle sectionStart_ = 0;

  void sectionBegin() {
    if (inSection_) return;
    inSection_ = true;
    sectionStart_ = engine_.now();
  }
  void sectionCommit() {
    if (!inSection_) return;
    inSection_ = false;
    commitLatency_.record(engine_.now() - sectionStart_);
  }

  // Spin parking (DESIGN.md §8, "Parked spinners"). A loop
  //   load rd,[rs1+imm]; beq|bne rd,rX -> exit; compute k; jmp load
  // (rd not rs1 or rX) whose load would hit with the value rd already holds
  // parks at its branch: its events leave the queue until a message reaches
  // the L1, and wake() credits what they did and puts the next one back.
  enum SpinPhase : unsigned { kSpinCompute, kSpinJmp, kSpinLoad, kSpinLookup, kSpinBranch,
                              kSpinPhases };
  struct Spinner final : sim::SpinLoop {
    explicit Spinner(Cpu& c) : cpu(c) {}
    Cpu& cpu;
    void settle() override { cpu.settleSpin(); }
  };
  std::vector<bool> spinBranch_;  ///< by pc: the branch of such a loop
  Spinner spin_{*this};
  std::size_t spinLoad_ = 0;       ///< pc of the parked loop's load
  std::uint64_t spinCredited_ = 0;  ///< loop events already credited

  bool tryPark();
  /// Credit the loop events run since park (retired instructions, L1 hits
  /// and LRU stamps) and put pc and the L1's op latch at the pending phase.
  void settleSpin();
  void wake() override;
  Addr spinAddr() const {
    const Instr& ld = prog_.code[spinLoad_];
    return regs_[ld.rs1] + static_cast<std::uint64_t>(ld.imm);
  }

  void step();
  /// The continuation that steps this CPU unless an abort or halt came first.
  auto stepAction() {
    return [this, ep = epoch_] {
      if (ep == epoch_ && !halted_) step();
    };
  }
  coh::L1Controller::DoneValFn loadDone(unsigned rd);
  void scheduleNext(Cycle delay);
  void retire(Cycle delay);
  void setReg(unsigned rd, std::uint64_t v) {
    if (rd != kZeroReg) regs_[rd] = v;
  }
  bool inTx() const { return nestDepth_ > 0 || l1_.mode() != TxMode::None; }

  // coh::L1Controller::CpuPort
  std::uint64_t priorityValue() const override;
  void onAbort(AbortCause cause) override;
  void onSwitchedToStl() override {}  // attribution happens at hlend
  void execMem(const Instr& i);
  void execTx(const Instr& i);
};

}  // namespace lktm::cpu
