// Hybrid HTM/STM: best-effort HTM whose capacity/conflict/fault fallback is
// the TL2 software path instead of the global lock — the regime "On the Cost
// of Concurrency in Hybrid Transactional Memory" argues is the interesting
// one, because software transactions keep running concurrently where a
// global-lock fallback would serialize everything.
//
// HW/SW conflict detection rides on the coherence protocol plus the TL2
// metadata (no extra hardware):
//  * An HTM attempt reads each accessed line's orec before touching the line,
//    aborting (kAbortCodeLockHeld -> mutex) if an STM committer holds it.
//    That puts the orec in the HTM read set, so an STM commit that later
//    locks it aborts the hardware transaction through plain coherence.
//  * The attempt also reads the global commit clock at start (subscribing to
//    it) and, if it wrote anything, republishes clock = rv + 1 inside the
//    transaction, stamping each written line's orec with that version. The
//    subscription guarantees the clock is still rv at commit, so stamps never
//    exceed the clock; stamps and data publish atomically at xend; and an
//    aborted attempt rolls its stamps back with the rest of its write set.
//  * STM transactions are plain TL2 and need no awareness of HTM at all.
//
// After maxRetries transient aborts — or immediately on a persistent cause
// (overflow, fault) — the transaction switches to the TL2 path for good,
// mirroring the lock-fallback discipline of Listing 1.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/backends/tl2.hpp"

namespace lktm::tm {

/// xbegin status / retry counter for the hybrid HTM attempt loop (dead once
/// the STM fallback engages; see the register table in backend.hpp).
inline constexpr unsigned kRegHyStatus = 26;
inline constexpr unsigned kRegHyRetries = 25;

class HybridBackend final : public Backend {
 public:
  explicit HybridBackend(const BackendConfig& cfg);

  const char* name() const override { return "hybrid"; }
  bool usesStmScratch() const override { return true; }

  void emitProgramStart(cpu::ProgramBuilder& b, unsigned tid,
                        unsigned nthreads) override;
  void emitTransaction(cpu::ProgramBuilder& b, const BodyFn& body) override;
  void emitRead(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                unsigned valReg) override;
  void emitWrite(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                 unsigned valReg) override;
  void emitUpdate(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                  unsigned valReg, std::int64_t delta) override;
  [[noreturn]] void emitReadDyn(cpu::ProgramBuilder& b, unsigned rd,
                                unsigned addrReg, std::int64_t off) override;
  [[noreturn]] void emitWriteDyn(cpu::ProgramBuilder& b, unsigned addrReg,
                                 unsigned valReg, std::int64_t off) override;

 private:
  rt::RetryPolicy retry_;
  Tl2Emitter stm_;
  bool htmMode_ = false;  ///< which pass of the body is being emitted
  bool htmWrote_ = false;
  std::vector<Addr> htmChecked_;  ///< orecs already guarded this attempt
  std::vector<Addr> htmStamped_;  ///< orecs already stamped this attempt

  void checkOrec(cpu::ProgramBuilder& b, Addr addr);
  void stampOrec(cpu::ProgramBuilder& b, Addr addr);
};

}  // namespace lktm::tm
