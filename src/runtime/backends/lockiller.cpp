#include "runtime/backends/lockiller.hpp"

using lktm::cpu::ProgramBuilder;

namespace lktm::tm {

LockillerBackend::LockillerBackend(const BackendConfig& cfg, bool forceCgl)
    : flavour_(forceCgl || !cfg.policy.htmEnabled ? Flavour::Cgl
               : cfg.policy.htmLock               ? Flavour::HtmLock
                                                  : Flavour::BestEffort),
      name_(forceCgl ? "cgl" : "lockiller"),
      lockAddr_(cfg.lockAddr),
      retry_(cfg.retry) {}

void LockillerBackend::emitProgramStart(ProgramBuilder& b, unsigned tid,
                                        unsigned /*nthreads*/) {
  b.li(kRegLockAddr, static_cast<std::int64_t>(lockAddr_));
  if (flavour_ == Flavour::Cgl && retry_.cglLock == rt::LockImpl::Mcs) {
    const Addr node = lockAddr_ + kLineBytes * (tid + 1);
    b.li(kRegMcsNode, static_cast<std::int64_t>(node));
  }
}

void LockillerBackend::emitTransaction(ProgramBuilder& b, const BodyFn& body) {
  switch (flavour_) {
    case Flavour::Cgl: emitEnterCgl(b); break;
    case Flavour::BestEffort: emitEnterBestEffort(b); break;
    case Flavour::HtmLock: emitEnterHtmLock(b); break;
  }
  body(b);
  switch (flavour_) {
    case Flavour::Cgl: emitExitCgl(b); break;
    case Flavour::BestEffort: emitExitBestEffort(b); break;
    case Flavour::HtmLock: emitExitHtmLock(b); break;
  }
}

// MCS queue lock: swap self onto the tail, link behind the predecessor and
// spin on our *own* node's flag — one invalidation + one refill per handoff,
// no global refetch/CAS storm. Node layout: word0 = next, word1 = locked.
void LockillerBackend::emitMcsAcquire(ProgramBuilder& b) const {
  b.store(kRegMcsNode, cpu::kZeroReg, 0);  // next = null
  b.li(kRegMcsTmp, 1);
  b.store(kRegMcsNode, kRegMcsTmp, 8);     // locked = 1
  const auto swapLoop = b.here();
  b.load(kRegMcsTmp, kRegLockAddr);        // expected = current tail
  b.mov(kRegStatus, kRegMcsNode);          // desired = my node
  b.cas(kRegStatus, kRegLockAddr, kRegMcsTmp);
  const auto raced = b.bne(kRegStatus, kRegMcsTmp);
  b.patchTarget(raced, swapLoop);
  const auto noPred = b.beq(kRegMcsTmp, cpu::kZeroReg);  // prev == null -> ours
  b.store(kRegMcsTmp, kRegMcsNode, 0);     // prev->next = me
  const auto wait = b.here();
  b.load(kRegStatus, kRegMcsNode, 8);      // spin locally on my flag
  const auto granted = b.beq(kRegStatus, cpu::kZeroReg);
  b.compute(8);
  b.jmp(wait);
  b.patchTarget(granted, b.here());
  b.patchTarget(noPred, b.here());
}

void LockillerBackend::emitMcsRelease(ProgramBuilder& b) const {
  b.load(kRegMcsTmp, kRegMcsNode, 0);      // next
  const auto handoffKnown = b.bne(kRegMcsTmp, cpu::kZeroReg);
  // No visible successor: try to swing tail back to null.
  b.li(kRegStatus, 0);                     // desired = null
  b.cas(kRegStatus, kRegLockAddr, kRegMcsNode);
  const auto released = b.beq(kRegStatus, kRegMcsNode);
  // A successor is mid-enqueue: wait for the link.
  const auto waitLink = b.here();
  b.load(kRegMcsTmp, kRegMcsNode, 0);
  const auto linked = b.bne(kRegMcsTmp, cpu::kZeroReg);
  b.compute(8);
  b.jmp(waitLink);
  b.patchTarget(linked, b.here());
  b.patchTarget(handoffKnown, b.here());
  b.store(kRegMcsTmp, cpu::kZeroReg, 8);   // next->locked = 0
  b.patchTarget(released, b.here());
}

// Test-and-test-and-set acquire of the fallback lock through the coherence
// protocol (CAS needs exclusive ownership, polling reads stay shared).
void LockillerBackend::emitSpinAcquire(ProgramBuilder& b) const {
  b.li(kRegScratch2, static_cast<std::int64_t>(kSpinBackoffStart));
  const auto spin = b.here();
  b.load(kRegStatus, kRegLockAddr);
  const auto poll = b.bne(kRegStatus, cpu::kZeroReg);  // held -> backoff
  b.li(kRegStatus, 1);
  b.cas(kRegStatus, kRegLockAddr, cpu::kZeroReg);  // if *lock==0: *lock=1
  const auto gotIt = b.beq(kRegStatus, cpu::kZeroReg);
  // Exponential backoff (capped): avoids the thundering herd on release.
  const auto backoff = b.here();
  b.delayReg(kRegScratch2);
  b.add(kRegScratch2, kRegScratch2, kRegScratch2);
  b.li(kRegStatus, static_cast<std::int64_t>(kSpinBackoffCap));
  const auto noCap = b.blt(kRegScratch2, kRegStatus);
  b.mov(kRegScratch2, kRegStatus);
  b.patchTarget(noCap, b.here());
  b.jmp(spin);
  b.patchTarget(poll, backoff);
  b.patchTarget(gotIt, b.here());
}

void LockillerBackend::emitEnterCgl(ProgramBuilder& b) const {
  b.mark(TimeCat::WaitLock);
  if (retry_.cglLock == rt::LockImpl::Mcs) {
    emitMcsAcquire(b);
  } else {
    emitSpinAcquire(b);
  }
  b.mark(TimeCat::Lock);
}

void LockillerBackend::emitExitCgl(ProgramBuilder& b) const {
  if (retry_.cglLock == rt::LockImpl::Mcs) {
    emitMcsRelease(b);
  } else {
    b.store(kRegLockAddr, cpu::kZeroReg);  // lock_release
  }
  b.note(0);  // completed a lock-path critical section
  b.mark(TimeCat::NonTran);
}

// Listing 1, stock best-effort flavour: the transaction subscribes to the
// fallback-lock word; any lock acquisition therefore aborts every running
// transaction (the `mutex` pathology the HTMLock mechanism removes).
void LockillerBackend::emitEnterBestEffort(ProgramBuilder& b) const {
  const HtmLoopRegs regs{kRegStatus, kRegRetries, kRegScratch};
  const HtmAttempt attempt = emitHtmAttemptStart(b, retry_, regs);
  // --- abort fall-through: retry_strategy(xstatus, &num_retries, lock) ---
  // A lock-holder abort (mutex) is not the transaction's fault: poll until
  // the lock is free, then retry without consuming an attempt (this is what
  // production elision runtimes do to avoid the lemming effect).
  b.li(kRegScratch, static_cast<std::int64_t>(cpu::statusOf(AbortCause::Mutex)));
  const auto notMutex = b.bne(kRegStatus, kRegScratch);
  b.mark(TimeCat::WaitLock);  // waiting for the fallback path to release
  const auto pollLock = b.here();
  b.load(kRegScratch, kRegLockAddr);
  const auto lockFree = b.beq(kRegScratch, cpu::kZeroReg);
  b.compute(static_cast<std::int64_t>(kSpinBackoffStart));
  b.jmp(pollLock);
  b.patchTarget(lockFree, b.here());
  b.jmp(attempt.retry);
  b.patchTarget(notMutex, b.here());
  const auto toFallback = emitHtmAttemptRetry(b, retry_, regs, attempt.retry);
  // --- subscribe the fallback lock (lines 8-9 of Listing 1) ---
  b.patchTarget(attempt.started, b.here());
  b.load(kRegScratch, kRegLockAddr);
  const auto toBody = b.beq(kRegScratch, cpu::kZeroReg);
  b.xabort(cpu::kAbortCodeLockHeld);
  // --- fallback path: lock_acquire(lock) ---
  const auto fallback = b.here();
  for (auto at : toFallback) b.patchTarget(at, fallback);
  b.mark(TimeCat::WaitLock);
  emitSpinAcquire(b);
  b.mark(TimeCat::Lock);
  b.patchTarget(toBody, b.here());
}

void LockillerBackend::emitExitBestEffort(ProgramBuilder& b) const {
  b.load(kRegScratch, kRegLockAddr);
  const auto toXend = b.beq(kRegScratch, cpu::kZeroReg);
  b.store(kRegLockAddr, cpu::kZeroReg);  // lock_release
  b.note(0);  // fallback-path critical section completed
  b.mark(TimeCat::NonTran);
  const auto toDone = b.jmp();
  b.patchTarget(toXend, b.here());
  b.xend();
  b.patchTarget(toDone, b.here());
}

// Listing 1 with the grey HTMLock modifications: no lock-word subscription,
// hlbegin after acquiring the fallback lock.
void LockillerBackend::emitEnterHtmLock(ProgramBuilder& b) const {
  const HtmLoopRegs regs{kRegStatus, kRegRetries, kRegScratch};
  const HtmAttempt attempt = emitHtmAttemptStart(b, retry_, regs);
  const auto toFallback = emitHtmAttemptRetry(b, retry_, regs, attempt.retry);
  // --- fallback: lock_acquire(lock); hlbegin(); (Listing 1 lines 16-17) ---
  const auto fallback = b.here();
  for (auto at : toFallback) b.patchTarget(at, fallback);
  b.mark(TimeCat::WaitLock);
  emitSpinAcquire(b);
  b.hlbegin();  // waits for the LLC HTMLock authorization
  b.patchTarget(attempt.started, b.here());  // started: straight to the body
}

// Listing 2: dispatch on the extended ttest.
void LockillerBackend::emitExitHtmLock(ProgramBuilder& b) const {
  b.ttest(kRegStatus);
  b.li(kRegScratch, static_cast<std::int64_t>(cpu::kTtestStl));
  const auto toStl = b.beq(kRegStatus, kRegScratch);
  b.li(kRegScratch, static_cast<std::int64_t>(cpu::kTtestTl));
  const auto toTl = b.beq(kRegStatus, kRegScratch);
  b.xend();
  const auto toDone1 = b.jmp();
  b.patchTarget(toStl, b.here());
  b.hlend();  // STL: switched from HTM, no lock to release
  const auto toDone2 = b.jmp();
  b.patchTarget(toTl, b.here());
  b.hlend();  // TL: also release the fallback lock
  b.store(kRegLockAddr, cpu::kZeroReg);
  b.mark(TimeCat::NonTran);
  b.patchTarget(toDone1, b.here());
  b.patchTarget(toDone2, b.here());
}

}  // namespace lktm::tm
