// The lock-elision backend: critical-section entry/exit code emitted as
// bytecode, matching the paper's Listings 1 and 2. Covers two registry rows:
//
//  * "lockiller" — the flavour follows the system's Table II policy:
//      - CGL        when HTM is disabled: MCS queue lock (or test-and-test-
//                   and-set, per RetryPolicy::cglLock) around the section;
//      - BestEffort Listing 1 as recommended for commercial HTM: xbegin,
//                   subscribe the fallback-lock word, xabort if held, retry
//                   loop, spin-acquire fallback;
//      - HtmLock    when the policy enables HTMLock: Listing 1 with the grey
//                   modifications (no lock-word subscription; hlbegin after
//                   acquiring the lock) plus the Listing 2 release that
//                   dispatches on the extended ttest, so it transparently
//                   supports switchingMode (STL).
//  * "cgl"       — the CGL flavour whatever the policy (the CGL row's
//    backend).
//
// Registers: see the table in backend.hpp.
#pragma once

#include <cstdint>

#include "runtime/backends/backend.hpp"

namespace lktm::tm {

inline constexpr unsigned kRegMcsTmp = 25;
inline constexpr unsigned kRegMcsNode = 26;  ///< this thread's MCS queue node
inline constexpr unsigned kRegScratch2 = 27;
inline constexpr unsigned kRegLockAddr = 28;
inline constexpr unsigned kRegStatus = 29;
inline constexpr unsigned kRegRetries = 30;
inline constexpr unsigned kRegScratch = 31;

class LockillerBackend final : public Backend {
 public:
  /// `forceCgl` selects the "cgl" registry row.
  LockillerBackend(const BackendConfig& cfg, bool forceCgl);

  const char* name() const override { return name_; }

  /// Materialize the lock address and, for the MCS coarse-grained lock, this
  /// thread's queue node (a line in the reserved lock region).
  void emitProgramStart(cpu::ProgramBuilder& b, unsigned tid,
                        unsigned nthreads) override;

  /// lock_acquire_elided(); body; lock_release_elided().
  void emitTransaction(cpu::ProgramBuilder& b, const BodyFn& body) override;

  void emitRead(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                unsigned valReg) override {
    b.li(addrReg, static_cast<std::int64_t>(addr));
    b.load(valReg, addrReg);
  }

  void emitWrite(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                 unsigned valReg) override {
    b.li(addrReg, static_cast<std::int64_t>(addr));
    b.store(addrReg, valReg);
  }

  void emitUpdate(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                  unsigned valReg, std::int64_t delta) override {
    b.li(addrReg, static_cast<std::int64_t>(addr));
    b.load(valReg, addrReg);
    b.addi(valReg, valReg, delta);
    b.store(addrReg, valReg);
  }

  void emitReadDyn(cpu::ProgramBuilder& b, unsigned rd, unsigned addrReg,
                   std::int64_t off) override {
    b.load(rd, addrReg, off);
  }

  void emitWriteDyn(cpu::ProgramBuilder& b, unsigned addrReg, unsigned valReg,
                    std::int64_t off) override {
    b.store(addrReg, valReg, off);
  }

 private:
  enum class Flavour : std::uint8_t { Cgl, BestEffort, HtmLock };

  Flavour flavour_;
  const char* name_;
  Addr lockAddr_;
  rt::RetryPolicy retry_;

  void emitSpinAcquire(cpu::ProgramBuilder& b) const;
  void emitMcsAcquire(cpu::ProgramBuilder& b) const;
  void emitMcsRelease(cpu::ProgramBuilder& b) const;
  void emitEnterCgl(cpu::ProgramBuilder& b) const;
  void emitEnterBestEffort(cpu::ProgramBuilder& b) const;
  void emitEnterHtmLock(cpu::ProgramBuilder& b) const;
  void emitExitCgl(cpu::ProgramBuilder& b) const;
  void emitExitBestEffort(cpu::ProgramBuilder& b) const;
  void emitExitHtmLock(cpu::ProgramBuilder& b) const;
};

}  // namespace lktm::tm
