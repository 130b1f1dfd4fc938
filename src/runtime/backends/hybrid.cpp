#include "runtime/backends/hybrid.hpp"

#include <algorithm>
#include <stdexcept>

using lktm::cpu::ProgramBuilder;

namespace lktm::tm {

HybridBackend::HybridBackend(const BackendConfig& cfg)
    : retry_(cfg.retry) {
  if (!cfg.policy.htmEnabled) {
    throw std::invalid_argument(
        "hybrid backend: the system's policy disables HTM (htmEnabled=false); "
        "use the tl2 backend for a pure-software configuration");
  }
}

void HybridBackend::emitProgramStart(ProgramBuilder& b, unsigned tid,
                                     unsigned /*nthreads*/) {
  stm_.setThread(tid);
  stm_.emitSeedInit(b);  // the STM fallback's backoff jitter needs its PRNG
}

// Guard one line's orec before the HTM attempt touches the line. The load
// puts the orec in the hardware read set — an STM committer locking it later
// aborts this transaction through plain coherence — and a currently locked
// orec means a writeback is in flight, so the attempt aborts immediately
// (kAbortCodeLockHeld -> accounted as a mutex abort, like Listing 1's
// lock-is-acquired xabort).
void HybridBackend::checkOrec(ProgramBuilder& b, Addr addr) {
  const Addr oa = orecAddrOf(addr);
  if (std::find(htmChecked_.begin(), htmChecked_.end(), oa) !=
      htmChecked_.end()) {
    return;
  }
  htmChecked_.push_back(oa);
  b.li(kRegT1, static_cast<std::int64_t>(oa));
  b.load(kRegT2, kRegT1);
  b.li(kRegT3, static_cast<std::int64_t>(kOrecLockedBit));
  b.andb(kRegT3, kRegT2, kRegT3);
  const auto clean = b.beq(kRegT3, cpu::kZeroReg);
  b.xabort(cpu::kAbortCodeLockHeld);
  b.patchTarget(clean, b.here());
}

// Stamp a written line's orec with (rv + 1) << 1 inside the transaction. The
// clock subscription guarantees the clock is still rv at commit, so the stamp
// never exceeds the published clock; the stamp is speculative state, rolled
// back with the rest of the write set if the attempt aborts.
void HybridBackend::stampOrec(ProgramBuilder& b, Addr addr) {
  const Addr oa = orecAddrOf(addr);
  if (std::find(htmStamped_.begin(), htmStamped_.end(), oa) !=
      htmStamped_.end()) {
    return;
  }
  htmStamped_.push_back(oa);
  b.addi(kRegT2, kRegRv, 1);
  b.add(kRegT2, kRegT2, kRegT2);  // encodeOrec(rv + 1)
  b.li(kRegT1, static_cast<std::int64_t>(oa));
  b.store(kRegT1, kRegT2);
}

void HybridBackend::emitTransaction(ProgramBuilder& b, const BodyFn& body) {
  b.mark(TimeCat::Htm);
  // Every abort cause consumes an attempt: there is no global lock to poll
  // free; a mutex abort here means an STM writeback was in flight, and
  // backoff gives it time to release.
  const HtmLoopRegs regs{kRegHyStatus, kRegHyRetries, kRegT1};
  const HtmAttempt attempt = emitHtmAttemptStart(b, retry_, regs);
  const auto toStm = emitHtmAttemptRetry(b, retry_, regs, attempt.retry);

  // --- hardware attempt ---
  b.patchTarget(attempt.started, b.here());
  htmMode_ = true;
  htmWrote_ = false;
  htmChecked_.clear();
  htmStamped_.clear();
  b.li(kRegT1, static_cast<std::int64_t>(kClockAddr));
  b.load(kRegRv, kRegT1);  // rv = clock, and subscribe to it: any STM commit
                           // bumping the clock aborts this attempt
  body(b);
  if (htmWrote_) {
    // Publish clock = rv + 1 atomically with the data at xend. Concurrent
    // HTM committers serialize through the clock subscription, so the clock
    // stays monotonic.
    b.addi(kRegT2, kRegRv, 1);
    b.li(kRegT1, static_cast<std::int64_t>(kClockAddr));
    b.store(kRegT1, kRegT2);
  }
  htmMode_ = false;
  b.xend();
  const auto toDone = b.jmp();

  // --- software fallback: the same body through the TL2 path ---
  const auto stmEntry = b.here();
  for (auto at : toStm) b.patchTarget(at, stmEntry);
  stm_.emitStmTransaction(b, body);

  b.patchTarget(toDone, b.here());
  b.mark(TimeCat::NonTran);
}

void HybridBackend::emitRead(ProgramBuilder& b, Addr addr, unsigned addrReg,
                             unsigned valReg) {
  if (!htmMode_) {
    stm_.read(b, addr, valReg);
    return;
  }
  checkOrec(b, addr);
  b.li(addrReg, static_cast<std::int64_t>(addr));
  b.load(valReg, addrReg);
}

void HybridBackend::emitWrite(ProgramBuilder& b, Addr addr, unsigned addrReg,
                              unsigned valReg) {
  if (!htmMode_) {
    stm_.write(b, addr, valReg);
    return;
  }
  checkOrec(b, addr);
  stampOrec(b, addr);
  htmWrote_ = true;
  b.li(addrReg, static_cast<std::int64_t>(addr));
  b.store(addrReg, valReg);
}

void HybridBackend::emitUpdate(ProgramBuilder& b, Addr addr, unsigned addrReg,
                               unsigned valReg, std::int64_t delta) {
  if (!htmMode_) {
    stm_.update(b, addr, valReg, delta);
    return;
  }
  checkOrec(b, addr);
  stampOrec(b, addr);
  htmWrote_ = true;
  b.li(addrReg, static_cast<std::int64_t>(addr));
  b.load(valReg, addrReg);
  b.addi(valReg, valReg, delta);
  b.store(addrReg, valReg);
}

void HybridBackend::emitReadDyn(ProgramBuilder& /*b*/, unsigned /*rd*/,
                                unsigned /*addrReg*/, std::int64_t /*off*/) {
  throw std::invalid_argument(
      "hybrid backend: data-dependent addresses (pointer chasing) are not "
      "supported — the STM fallback needs emission-time-static access sets; "
      "use the lockiller or cgl backend for this workload");
}

void HybridBackend::emitWriteDyn(ProgramBuilder& /*b*/, unsigned /*addrReg*/,
                                 unsigned /*valReg*/, std::int64_t /*off*/) {
  throw std::invalid_argument(
      "hybrid backend: data-dependent addresses (pointer chasing) are not "
      "supported — the STM fallback needs emission-time-static access sets; "
      "use the lockiller or cgl backend for this workload");
}

}  // namespace lktm::tm
