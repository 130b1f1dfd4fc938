#include "cpu/core.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "stats/path.hpp"

namespace lktm::cpu {

Cpu::Cpu(sim::SimContext& ctx, CoreId id, coh::L1Controller& l1, BarrierUnit& barrier,
         Program program, CpuParams params, std::function<void()> onHalt)
    : engine_(ctx.engine()),
      id_(id),
      l1_(l1),
      barrier_(barrier),
      prog_(std::move(program)),
      params_(params),
      onHalt_(std::move(onHalt)),
      bd_(ctx.stats(), "core." + std::to_string(id)),
      // Cycles from critical-section begin to commit, spanning retries.
      commitLatency_(ctx.stats().histogram(
          stats::statPath("core." + std::to_string(id), "latency.commit"))) {
  l1_.setCpuPort(*this);
  spinBranch_.assign(prog_.size(), false);
  for (std::size_t p = 0; p + 3 < prog_.size(); ++p) {
    const Instr& ld = prog_.code[p];
    const Instr& br = prog_.code[p + 1];
    const Instr& jmp = prog_.code[p + 3];
    spinBranch_[p + 1] = ld.op == Op::Load && (br.op == Op::Beq || br.op == Op::Bne) &&
                         prog_.code[p + 2].op == Op::Compute && jmp.op == Op::Jmp &&
                         jmp.imm == static_cast<std::int64_t>(p) && ld.rd != kZeroReg &&
                         ld.rd != ld.rs1 && (br.rs1 == ld.rd) != (br.rs2 == ld.rd);
  }
  spin_.phases = kSpinPhases;
}

Cpu::~Cpu() { engine_.queue().forget(spin_); }

void Cpu::start() {
  bd_.beginSegment(TimeCat::NonTran, engine_.now());
  scheduleNext(1);
}

void Cpu::scheduleNext(Cycle delay) { engine_.schedule(delay, stepAction()); }

coh::L1Controller::DoneValFn Cpu::loadDone(unsigned rd) {
  return [this, ep = epoch_, rd](std::uint64_t v) {
    if (ep != epoch_ || halted_) return;
    setReg(rd, v);
    if (inTx()) ++memRefsInTx_;
    retire(1);
  };
}

bool Cpu::tryPark() {
  // At the loop's compute, just past its branch.
  spinLoad_ = pc_ - 2;
  const Instr& ld = prog_.code[spinLoad_];
  if (inTx() || !l1_.loadStaysAt(spinAddr(), regs_[ld.rd])) return false;
  const std::int64_t k = prog_.code[pc_].imm;
  spin_.delay[kSpinCompute] = static_cast<Cycle>(k > 0 ? k : 1);
  spin_.delay[kSpinJmp] = 1;
  spin_.delay[kSpinLoad] = l1_.hitLatency();
  spin_.delay[kSpinLookup] = 1;
  spin_.delay[kSpinBranch] = 1;
  if (!engine_.queue().park(spin_, kSpinCompute, 1)) return false;
  spinCredited_ = 0;
  l1_.parkCpu();
  return true;
}

void Cpu::settleSpin() {
  // The k-th loop event since park ran phase k % kSpinPhases.
  auto ranOf = [](std::uint64_t events, unsigned phase) {
    return events / kSpinPhases + (events % kSpinPhases > phase ? 1 : 0);
  };
  auto ran = [&](unsigned phase) { return ranOf(spin_.ran, phase) - ranOf(spinCredited_, phase); };
  instsRetired_ += ran(kSpinCompute) + ran(kSpinJmp) + ran(kSpinLookup) + ran(kSpinBranch);
  l1_.creditHits(spinAddr(), ran(kSpinLookup));
  spinCredited_ = spin_.ran;
  const unsigned rd = prog_.code[spinLoad_].rd;
  switch (spin_.phase) {
    case kSpinCompute: pc_ = spinLoad_ + 2; break;
    case kSpinJmp: pc_ = spinLoad_ + 3; break;
    case kSpinLoad: pc_ = spinLoad_; break;
    case kSpinLookup:
      pc_ = spinLoad_;
      l1_.latchLoad(spinAddr(), loadDone(rd));
      break;
    case kSpinBranch: pc_ = spinLoad_ + 1; break;
  }
}

void Cpu::wake() {
  engine_.queue().unpark(spin_);
  settleSpin();
  if (spin_.phase == kSpinLookup) {
    l1_.scheduleLookup(spin_);
  } else {
    engine_.queue().scheduleUnparked(spin_, stepAction());
  }
}

void Cpu::retire(Cycle delay) {
  ++instsRetired_;
  if (inTx()) ++instsInTx_;
  ++pc_;
  scheduleNext(delay);
}

std::uint64_t Cpu::priorityValue() const {
  switch (params_.priorityKind) {
    case core::PriorityKind::None: return 0;
    case core::PriorityKind::InstsBased: return instsInTx_;
    case core::PriorityKind::Progression: return memRefsInTx_;
  }
  return 0;
}

void Cpu::step() {
  const Instr& i = prog_.at(pc_);
  switch (i.op) {
    case Op::Nop:
      retire(1);
      return;
    case Op::Li:
      setReg(i.rd, static_cast<std::uint64_t>(i.imm));
      retire(1);
      return;
    case Op::Mov:
      setReg(i.rd, regs_[i.rs1]);
      retire(1);
      return;
    case Op::Add:
      setReg(i.rd, regs_[i.rs1] + regs_[i.rs2]);
      retire(1);
      return;
    case Op::Sub:
      setReg(i.rd, regs_[i.rs1] - regs_[i.rs2]);
      retire(1);
      return;
    case Op::Mul:
      setReg(i.rd, regs_[i.rs1] * regs_[i.rs2]);
      retire(1);
      return;
    case Op::AndB:
      setReg(i.rd, regs_[i.rs1] & regs_[i.rs2]);
      retire(1);
      return;
    case Op::OrB:
      setReg(i.rd, regs_[i.rs1] | regs_[i.rs2]);
      retire(1);
      return;
    case Op::XorB:
      setReg(i.rd, regs_[i.rs1] ^ regs_[i.rs2]);
      retire(1);
      return;
    case Op::Shl:
      setReg(i.rd, regs_[i.rs1] << (regs_[i.rs2] & 63));
      retire(1);
      return;
    case Op::Shr:
      setReg(i.rd, regs_[i.rs1] >> (regs_[i.rs2] & 63));
      retire(1);
      return;
    case Op::AddI:
      setReg(i.rd, regs_[i.rs1] + static_cast<std::uint64_t>(i.imm));
      retire(1);
      return;
    case Op::Rem:
      if (regs_[i.rs2] == 0) throw std::logic_error("Rem by zero");
      setReg(i.rd, regs_[i.rs1] % regs_[i.rs2]);
      retire(1);
      return;
    case Op::Compute: {
      ++instsRetired_;
      if (inTx()) ++instsInTx_;
      ++pc_;
      scheduleNext(static_cast<Cycle>(i.imm > 0 ? i.imm : 1));
      return;
    }
    case Op::DelayReg: {
      ++instsRetired_;
      if (inTx()) ++instsInTx_;
      ++pc_;
      const std::uint64_t d = regs_[i.rs1];
      scheduleNext(static_cast<Cycle>(d > 65536 ? 65536 : (d == 0 ? 1 : d)));
      return;
    }
    case Op::Beq:
    case Op::Bne:
    case Op::Blt:
    case Op::Bge: {
      const std::uint64_t a = regs_[i.rs1];
      const std::uint64_t b = regs_[i.rs2];
      bool taken = false;
      switch (i.op) {
        case Op::Beq: taken = a == b; break;
        case Op::Bne: taken = a != b; break;
        case Op::Blt: taken = a < b; break;
        case Op::Bge: taken = a >= b; break;
        default: break;
      }
      ++instsRetired_;
      if (inTx()) ++instsInTx_;
      pc_ = taken ? static_cast<std::size_t>(i.imm) : pc_ + 1;
      if (!taken && spinBranch_[pc_ - 1] && tryPark()) return;
      scheduleNext(1);
      return;
    }
    case Op::Jmp:
      ++instsRetired_;
      if (inTx()) ++instsInTx_;
      pc_ = static_cast<std::size_t>(i.imm);
      scheduleNext(1);
      return;
    case Op::Load:
    case Op::Store:
    case Op::Cas:
      execMem(i);
      return;
    case Op::XBegin:
    case Op::XEnd:
    case Op::XAbort:
    case Op::HlBegin:
    case Op::HlEnd:
    case Op::TTest:
      execTx(i);
      return;
    case Op::SysCall:
      if (l1_.mode() == TxMode::Htm) {
        if (params_.switchOnFault) {
          // Extension beyond the paper: try to become irrevocable first.
          l1_.trySwitchToLockMode([this, ep = epoch_](bool granted) {
            if (ep != epoch_ || halted_) return;
            if (granted) {
              retire(params_.syscallCost);  // STL survives the exception
            } else {
              l1_.txAbort(AbortCause::Fault);
            }
          });
          return;
        }
        // Architectural constraint of best-effort HTM: exceptions abort.
        // (The paper deliberately does not switch modes on exceptions.)
        l1_.txAbort(AbortCause::Fault);
        return;
      }
      retire(params_.syscallCost);
      return;
    case Op::Mark: {
      const auto cat = static_cast<TimeCat>(i.imm);
      // Every backend opens a critical section through exactly one of these
      // marks (CGL: WaitLock; TL2/hybrid: Htm) or through xbegin; re-marks
      // inside an open section (fallback, backoff) are no-ops for latency.
      if (cat == TimeCat::Htm || cat == TimeCat::WaitLock) sectionBegin();
      bd_.beginSegment(cat, engine_.now());
      retire(1);
      return;
    }
    case Op::Note:
      switch (i.imm) {
        case kNoteLockCommit:
          ++txCounters().lockCommits;
          sectionCommit();
          engine_.noteProgress();
          break;
        case kNoteStmCommit:
          ++txCounters().stmCommits;
          sectionCommit();
          engine_.noteProgress();
          break;
        // STM aborts do NOT note progress: a livelocked software path must
        // still trip the forward-progress watchdog.
        case kNoteStmAbortLock:
          txCounters().recordAbort(AbortCause::LockConflict);
          break;
        case kNoteStmAbortValidation:
          txCounters().recordAbort(AbortCause::MemConflict);
          break;
        default:
          break;
      }
      retire(1);
      return;
    case Op::Barrier:
      barrier_.arrive(id_, [this, ep = epoch_] {
        if (ep == epoch_ && !halted_) retire(1);
      });
      return;
    case Op::Halt:
      bd_.finish(engine_.now());
      halted_ = true;
      haltedAt_ = engine_.now();
      engine_.noteProgress();
      onHalt_();
      return;
  }
  throw std::logic_error("unknown opcode");
}

void Cpu::execMem(const Instr& i) {
  const Addr addr = regs_[i.rs1] + static_cast<std::uint64_t>(i.imm);
  switch (i.op) {
    case Op::Load:
      l1_.load(addr, loadDone(i.rd));
      return;
    case Op::Store:
      l1_.store(addr, regs_[i.rs2], [this, ep = epoch_] {
        if (ep != epoch_ || halted_) return;
        if (inTx()) ++memRefsInTx_;
        retire(1);
      });
      return;
    case Op::Cas:
      l1_.cas(addr, regs_[i.rs2], regs_[i.rd],
              [this, ep = epoch_, rd = i.rd](std::uint64_t old) {
                if (ep != epoch_ || halted_) return;
                setReg(rd, old);
                if (inTx()) ++memRefsInTx_;
                retire(1);
              });
      return;
    default:
      throw std::logic_error("execMem on non-memory op");
  }
}

void Cpu::execTx(const Instr& i) {
  switch (i.op) {
    case Op::XBegin: {
      if (nestDepth_ == 0) {
        ckpt_.pc = pc_;
        ckpt_.regs = regs_;
        ckpt_.statusReg = i.rd;
        instsInTx_ = 0;
        memRefsInTx_ = 0;
        sectionBegin();  // survives aborts: latency spans the whole section
        l1_.txBegin();
        bd_.beginSegment(TimeCat::Htm, engine_.now());  // provisional
      }
      ++nestDepth_;
      setReg(i.rd, kTxStarted);
      retire(3);
      return;
    }
    case Op::XEnd: {
      if (nestDepth_ == 0) throw std::logic_error("xend outside transaction");
      if (--nestDepth_ > 0) {
        retire(1);
        return;
      }
      l1_.txCommit([this, ep = epoch_] {
        if (ep != epoch_ || halted_) return;
        ++txCounters().htmCommits;
        sectionCommit();
        bd_.resolveSegment(TimeCat::Htm, engine_.now(), TimeCat::NonTran);
        engine_.noteProgress();
        retire(1);
      });
      return;
    }
    case Op::XAbort: {
      const AbortCause cause =
          i.imm == kAbortCodeLockHeld ? AbortCause::Mutex : AbortCause::Explicit;
      l1_.txAbort(cause);
      return;
    }
    case Op::HlBegin: {
      assert(nestDepth_ == 0);
      bd_.beginSegment(TimeCat::WaitLock, engine_.now());  // LLC authorization
      l1_.hlBegin([this, ep = epoch_] {
        if (ep != epoch_ || halted_) return;
        bd_.beginSegment(TimeCat::Lock, engine_.now());
        instsInTx_ = 0;
        memRefsInTx_ = 0;
        engine_.noteProgress();
        retire(1);
      });
      return;
    }
    case Op::HlEnd: {
      const TxMode m = l1_.mode();
      if (!isLockMode(m)) throw std::logic_error("hlend outside HTMLock mode");
      nestDepth_ = 0;
      l1_.hlEnd([this, ep = epoch_, m] {
        if (ep != epoch_ || halted_) return;
        sectionCommit();
        if (m == TxMode::STL) {
          ++txCounters().stlCommits;
          // The whole attempt survived by switching: paper's `switchLock`.
          bd_.resolveSegment(TimeCat::SwitchLock, engine_.now(), TimeCat::NonTran);
        } else {
          ++txCounters().lockCommits;
          bd_.beginSegment(TimeCat::NonTran, engine_.now());
        }
        engine_.noteProgress();
        retire(1);
      });
      return;
    }
    case Op::TTest: {
      std::uint64_t v = 0;
      switch (l1_.mode()) {
        case TxMode::STL: v = kTtestStl; break;
        case TxMode::TL: v = kTtestTl; break;
        default: v = nestDepth_; break;
      }
      setReg(i.rd, v);
      retire(2);
      return;
    }
    default:
      throw std::logic_error("execTx on non-tx op");
  }
}

void Cpu::onAbort(AbortCause cause) {
  // The L1 has already rolled the cache back and squashed pending requests.
  ++epoch_;
  nestDepth_ = 0;
  bd_.resolveSegment(TimeCat::Aborted, engine_.now(), TimeCat::Rollback);
  const Cycle penalty =
      cause == AbortCause::Fault ? params_.faultPenalty : params_.rollbackPenalty;
  engine_.schedule(penalty, [this, cause] {
    regs_ = ckpt_.regs;
    setReg(ckpt_.statusReg, statusOf(cause));
    pc_ = ckpt_.pc + 1;  // resume at the fallback point after xbegin
    instsInTx_ = 0;
    memRefsInTx_ = 0;
    bd_.beginSegment(TimeCat::NonTran, engine_.now());
    step();
  });
}

std::string Cpu::diagnostic() const {
  std::ostringstream oss;
  oss << "cpu c" << id_ << ": pc=" << pc_ << (halted_ ? " halted" : "")
      << " nest=" << nestDepth_ << " " << l1_.diagnostic();
  return oss.str();
}

}  // namespace lktm::cpu
