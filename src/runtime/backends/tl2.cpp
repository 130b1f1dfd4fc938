#include "runtime/backends/tl2.hpp"

#include <algorithm>
#include <stdexcept>

using lktm::cpu::ProgramBuilder;

namespace lktm::tm {

namespace {

void insertUnique(std::vector<Addr>& v, Addr a) {
  if (std::find(v.begin(), v.end(), a) == v.end()) v.push_back(a);
}

}  // namespace

void Tl2Emitter::emitSeedInit(ProgramBuilder& b) {
  // splitmix64 of (tid + 1): distinct, well-mixed, and never zero (zero is
  // the xorshift64 fixed point), computed here so the program carries only
  // one li.
  std::uint64_t s = (tid_ + 1) * 0x9e3779b97f4a7c15ull;
  s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ull;
  s = (s ^ (s >> 27)) * 0x94d049bb133111ebull;
  s ^= s >> 31;
  if (s == 0) s = 0x2545f4914f6cdd1dull;
  b.li(kRegRnd, static_cast<std::int64_t>(s));
}

// One shared-memory read. Reads-after-writes are resolved at emission time
// from the redo log; fresh reads are the TL2 inline check: orec v1, data,
// orec v2 — consistent iff v1 unlocked, v1 <= rv, and v2 == v1.
void Tl2Emitter::read(ProgramBuilder& b, Addr addr, unsigned valReg) {
  const auto it = writeSlots_.find(addr);
  if (it != writeSlots_.end()) {
    b.li(kRegT1, static_cast<std::int64_t>(redoSlotAddr(it->second)));
    b.load(valReg, kRegT1);
    return;
  }
  const Addr oa = orecAddrOf(addr);
  b.li(kRegT1, static_cast<std::int64_t>(oa));
  b.load(kRegT2, kRegT1);  // v1
  b.li(kRegT3, static_cast<std::int64_t>(kOrecLockedBit));
  b.andb(kRegT3, kRegT2, kRegT3);
  aborts_.push_back({b.bne(kRegT3, cpu::kZeroReg), kBusy});  // writer holds it
  b.add(kRegT3, kRegRv, kRegRv);  // rv << 1
  aborts_.push_back({b.blt(kRegT3, kRegT2), kValidation});   // v1 > rv: too new
  b.li(kRegT1, static_cast<std::int64_t>(addr));
  b.load(valReg, kRegT1);  // the data word
  b.li(kRegT1, static_cast<std::int64_t>(oa));
  b.load(kRegT3, kRegT1);  // v2
  aborts_.push_back({b.bne(kRegT3, kRegT2), kValidation});   // changed mid-read
  insertUnique(readOrecs_, oa);
}

// One shared-memory write: buffered in this thread's redo log. One slot per
// address — a later write to the same address overwrites the slot, so the
// commit-time writeback publishes the last value (program order).
void Tl2Emitter::write(ProgramBuilder& b, Addr addr, unsigned valReg) {
  unsigned slot;
  const auto it = writeSlots_.find(addr);
  if (it != writeSlots_.end()) {
    slot = it->second;
  } else {
    slot = static_cast<unsigned>(writeSlots_.size());
    if (slot >= kMaxWriteSet) {
      throw std::invalid_argument(
          "tl2 backend: transaction write set exceeds the " +
          std::to_string(kMaxWriteSet) + "-slot redo log");
    }
    writeSlots_.emplace(addr, slot);
    writeOrder_.push_back(addr);
    insertUnique(writeOrecs_, orecAddrOf(addr));
  }
  b.li(kRegT1, static_cast<std::int64_t>(redoSlotAddr(slot)));
  b.store(kRegT1, valReg);
}

void Tl2Emitter::update(ProgramBuilder& b, Addr addr, unsigned valReg,
                        std::int64_t delta) {
  read(b, addr, valReg);
  b.addi(valReg, valReg, delta);
  write(b, addr, valReg);
}

void Tl2Emitter::emitStmTransaction(ProgramBuilder& b,
                                    const Backend::BodyFn& body) {
  writeSlots_.clear();
  writeOrder_.clear();
  writeOrecs_.clear();
  readOrecs_.clear();
  aborts_.clear();

  b.mark(TimeCat::Htm);  // speculative (software) attempt
  b.li(kRegBk, static_cast<std::int64_t>(backoffBase()));
  const auto attempt = b.here();
  b.li(kRegHeld, 0);
  b.li(kRegT1, static_cast<std::int64_t>(kClockAddr));
  b.load(kRegRv, kRegT1);  // rv = global clock
  body(b);

  // ---- commit ----
  if (!writeOrder_.empty()) {
    // Acquire each written orec (first-occurrence order; try-lock + abort, so
    // the order cannot deadlock), saving the pre-lock word for release and
    // for validating reads that share an orec with a write.
    for (unsigned j = 0; j < writeOrecs_.size(); ++j) {
      b.li(kRegT1, static_cast<std::int64_t>(writeOrecs_[j]));
      b.load(kRegT2, kRegT1);
      b.li(kRegT3, static_cast<std::int64_t>(kOrecLockedBit));
      b.andb(kRegT3, kRegT2, kRegT3);
      aborts_.push_back({b.bne(kRegT3, cpu::kZeroReg), kBusy});
      b.li(kRegT3, static_cast<std::int64_t>(orecLockWord(tid_)));
      b.cas(kRegT3, kRegT1, kRegT2);  // if *orec == v1: *orec = lock word
      aborts_.push_back({b.bne(kRegT3, kRegT2), kBusy});  // raced
      b.li(kRegT1, static_cast<std::int64_t>(savedVerAddr(j)));
      b.store(kRegT1, kRegT2);
      b.addi(kRegHeld, kRegHeld, 1);
    }
    // wv = ++clock (CAS loop; a lost race just refetches).
    const auto bump = b.here();
    b.li(kRegT1, static_cast<std::int64_t>(kClockAddr));
    b.load(kRegT2, kRegT1);
    b.addi(kRegT3, kRegT2, 1);
    b.cas(kRegT3, kRegT1, kRegT2);
    b.bne(kRegT3, kRegT2, bump);
    b.addi(kRegWv, kRegT2, 1);
    // Validate the read set — unless wv == rv + 1, which proves no other
    // writer committed since we read the clock (standard TL2 fast path).
    b.addi(kRegT3, kRegRv, 1);
    const auto skipValidate = b.beq(kRegT3, kRegWv);
    for (const Addr oa : readOrecs_) {
      const auto w = std::find(writeOrecs_.begin(), writeOrecs_.end(), oa);
      if (w != writeOrecs_.end()) {
        // Locked by us: judge the version we displaced when locking.
        const unsigned j = static_cast<unsigned>(w - writeOrecs_.begin());
        b.li(kRegT1, static_cast<std::int64_t>(savedVerAddr(j)));
        b.load(kRegT2, kRegT1);
      } else {
        b.li(kRegT1, static_cast<std::int64_t>(oa));
        b.load(kRegT2, kRegT1);
        b.li(kRegT3, static_cast<std::int64_t>(kOrecLockedBit));
        b.andb(kRegT3, kRegT2, kRegT3);
        aborts_.push_back({b.bne(kRegT3, cpu::kZeroReg), kBusy});
      }
      b.add(kRegT3, kRegRv, kRegRv);
      aborts_.push_back({b.blt(kRegT3, kRegT2), kValidation});  // version > rv
    }
    b.patchTarget(skipValidate, b.here());
    // Redo-log writeback, program order of first writes; slots already hold
    // the last value written per address.
    for (const Addr addr : writeOrder_) {
      b.li(kRegT1, static_cast<std::int64_t>(redoSlotAddr(writeSlots_.at(addr))));
      b.load(kRegT2, kRegT1);
      b.li(kRegT1, static_cast<std::int64_t>(addr));
      b.store(kRegT1, kRegT2);
    }
    // Release: stamp every write orec with wv (unlocked).
    b.add(kRegT2, kRegWv, kRegWv);  // encodeOrec(wv)
    for (const Addr oa : writeOrecs_) {
      b.li(kRegT1, static_cast<std::int64_t>(oa));
      b.store(kRegT1, kRegT2);
    }
  }
  b.note(cpu::kNoteStmCommit);
  const auto toDone = b.jmp();

  // ---- abort path ----
  // Stubs select the cause, then a shared handler rolls back the orec locks
  // acquired so far (restoring the exact saved versions — restoring zero
  // would corrupt other readers' snapshot checks), pulses the abort cause,
  // backs off, and retries. Unbounded retry: try-lock + backoff cannot
  // deadlock, and the xorshift-jittered exponential backoff breaks the
  // symmetry that would otherwise livelock deterministic adversaries whose
  // capped delays have phase-locked (see kRegRnd in the header).
  const auto busyStub = b.here();
  b.li(kRegCode, kBusy);
  const auto toAbort = b.jmp();
  const auto validStub = b.here();
  b.li(kRegCode, kValidation);
  const auto abortEntry = b.here();
  b.patchTarget(toAbort, abortEntry);
  for (const Pending& p : aborts_) {
    b.patchTarget(p.at, p.code == kBusy ? busyStub : validStub);
  }
  for (unsigned j = 0; j < writeOrecs_.size(); ++j) {
    b.li(kRegT1, j);
    const auto notHeld = b.bge(kRegT1, kRegHeld);  // lock j was never taken
    b.li(kRegT1, static_cast<std::int64_t>(savedVerAddr(j)));
    b.load(kRegT2, kRegT1);
    b.li(kRegT1, static_cast<std::int64_t>(writeOrecs_[j]));
    b.store(kRegT1, kRegT2);
    b.patchTarget(notHeld, b.here());
  }
  b.li(kRegT3, kValidation);
  const auto isValidation = b.beq(kRegCode, kRegT3);
  b.note(cpu::kNoteStmAbortLock);
  const auto toBackoff = b.jmp();
  b.patchTarget(isValidation, b.here());
  b.note(cpu::kNoteStmAbortValidation);
  b.patchTarget(toBackoff, b.here());
  b.mark(TimeCat::WaitLock);
  // Advance the per-thread xorshift64 (shifts 13/7/17)...
  b.li(kRegT1, 13);
  b.shl(kRegT3, kRegRnd, kRegT1);
  b.xorb(kRegRnd, kRegRnd, kRegT3);
  b.li(kRegT1, 7);
  b.shr(kRegT3, kRegRnd, kRegT1);
  b.xorb(kRegRnd, kRegRnd, kRegT3);
  b.li(kRegT1, 17);
  b.shl(kRegT3, kRegRnd, kRegT1);
  b.xorb(kRegRnd, kRegRnd, kRegT3);
  // ...and sleep bk + (rnd % (bk + 1)): uniform in [bk, 2bk]. Registers are
  // unsigned, and the divisor bk + 1 >= 1, so Rem is always defined.
  b.addi(kRegT2, kRegBk, 1);
  b.rem(kRegT3, kRegRnd, kRegT2);
  b.add(kRegT3, kRegBk, kRegT3);
  b.delayReg(kRegT3);
  b.add(kRegBk, kRegBk, kRegBk);
  b.li(kRegT3, static_cast<std::int64_t>(backoffCap()));
  const auto noCap = b.blt(kRegBk, kRegT3);
  b.mov(kRegBk, kRegT3);
  b.patchTarget(noCap, b.here());
  b.mark(TimeCat::Htm);
  b.jmp(attempt);

  b.patchTarget(toDone, b.here());
}

// ---- Tl2Backend ----

void Tl2Backend::emitProgramStart(ProgramBuilder& b, unsigned tid,
                                  unsigned /*nthreads*/) {
  emitter_.setThread(tid);
  emitter_.emitSeedInit(b);
}

void Tl2Backend::emitTransaction(ProgramBuilder& b, const BodyFn& body) {
  emitter_.emitStmTransaction(b, body);
  b.mark(TimeCat::NonTran);
}

void Tl2Backend::emitRead(ProgramBuilder& b, Addr addr, unsigned /*addrReg*/,
                          unsigned valReg) {
  emitter_.read(b, addr, valReg);
}

void Tl2Backend::emitWrite(ProgramBuilder& b, Addr addr, unsigned /*addrReg*/,
                           unsigned valReg) {
  emitter_.write(b, addr, valReg);
}

void Tl2Backend::emitUpdate(ProgramBuilder& b, Addr addr, unsigned /*addrReg*/,
                            unsigned valReg, std::int64_t delta) {
  emitter_.update(b, addr, valReg, delta);
}

void Tl2Backend::emitReadDyn(ProgramBuilder& /*b*/, unsigned /*rd*/,
                             unsigned /*addrReg*/, std::int64_t /*off*/) {
  throw std::invalid_argument(
      "tl2 backend: data-dependent addresses (pointer chasing) are not "
      "supported — TL2 conflict detection needs emission-time-static access "
      "sets; use the lockiller or cgl backend for this workload");
}

void Tl2Backend::emitWriteDyn(ProgramBuilder& /*b*/, unsigned /*addrReg*/,
                              unsigned /*valReg*/, std::int64_t /*off*/) {
  throw std::invalid_argument(
      "tl2 backend: data-dependent addresses (pointer chasing) are not "
      "supported — TL2 conflict detection needs emission-time-static access "
      "sets; use the lockiller or cgl backend for this workload");
}

}  // namespace lktm::tm
