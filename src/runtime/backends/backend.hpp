// Pluggable TM backends: the transaction execution path as an emission-level
// interface.
//
// A backend decides what bytecode a critical section turns into — HTM lock
// elision (lockiller), a plain coarse-grained lock (cgl), a TL2-style
// software TM (tl2), or best-effort HTM that falls back to software
// transactions (hybrid). Workloads describe *what* a transaction does
// (reads/writes/updates over shared addresses) and the backend decides *how*
// that becomes instructions, so every Table II row and every future backend
// reuses the same workload generators unchanged.
//
// The interface is emission-level rather than a runtime dispatch layer on
// purpose: programs stay plain bytecode interpreted by the unmodified
// in-order cores (a digest test pins every emitted program), and software
// backends pay their bookkeeping in *simulated* instructions, which is
// exactly the cost model the paper's comparison needs.
//
// begin/commit/abort are folded into emitTransaction(): with statically
// emitted programs the backend lays out the whole attempt/retry/fallback
// structure around the body, and the abort path is a branch target inside
// that structure, not a callback. The contention manager is the RetryPolicy
// each backend receives in its BackendConfig (attempt budgets, backoff
// shape). The HTM attempt loop that lockiller and hybrid share is emitted by
// emitHtmAttemptStart/emitHtmAttemptRetry below.
//
// Register use (32 registers; programs of different backends never mix):
//
//   reg  owner                                      lifetime
//   r0   hardwired zero
//   r1-5 workload bodies (addrReg/valReg, pointers)  across backend calls
//   r20  tl2/hybrid: xorshift64 backoff state        whole program
//   r21  tl2/hybrid: backoff accumulator             one transaction
//   r22  tl2/hybrid: orec locks held                 one transaction
//   r23  tl2/hybrid: write version                   one transaction
//   r24  tl2/hybrid: read version                    one transaction
//   r25  lockiller: MCS temporary                    one lock operation
//        hybrid: HTM attempts left                   one HTM attempt loop
//   r26  lockiller: this thread's MCS queue node     whole program
//        hybrid: xbegin status                       one HTM attempt loop
//   r27  lockiller: spin-backoff delay               one lock acquire
//   r28  lockiller: fallback-lock address            whole program
//        tl2/hybrid: abort-cause selector            one transaction
//   r29  lockiller: xbegin / ttest / lock status     one section
//        tl2/hybrid: temporary T3                    one transaction
//   r30  lockiller: HTM attempts left                one section
//        tl2/hybrid: temporary T2                    one transaction
//   r31  lockiller: temporary                        one section
//        tl2/hybrid: temporary T1 (hybrid loop too)  one transaction
//
// Workload bodies keep live values in r1-r5 only; r6-r19 are unused.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/conflict_manager.hpp"
#include "cpu/program.hpp"
#include "runtime/retry_policy.hpp"
#include "sim/types.hpp"

namespace lktm::tm {

/// Base of the software-TM metadata region (global commit clock, orec table,
/// per-thread redo logs). Far above every workload footprint; the runner
/// rejects workloads that would grow into it. MainMemory is sparse and reads
/// absent lines as zero, so the whole region is implicitly zero-initialized
/// (clock 0, all orecs unlocked at version 0).
inline constexpr Addr kStmScratchBase = 0x4000'0000;

/// Exponential backoff while polling a held lock word: the first pause and
/// the cap the doubling stops at, in cycles.
inline constexpr Cycle kSpinBackoffStart = 24;
inline constexpr Cycle kSpinBackoffCap = 512;
/// Pause between speculative attempts, and the base of the TL2 backoff.
inline constexpr Cycle kRetryBackoff = 40;

/// Everything a backend needs to emit programs for one run.
struct BackendConfig {
  core::TmPolicy policy{};
  rt::RetryPolicy retry{};
  Addr lockAddr = 0;  ///< fallback-lock word (lock-elision backends)
};

class Backend {
 public:
  /// Emits the accesses of one transaction through the hooks below. MUST be
  /// pure emission (no side effects on the workload object): dual-path
  /// backends invoke it more than once per transaction (e.g. the hybrid
  /// backend emits an HTM attempt and an STM fallback of the same body).
  using BodyFn = std::function<void(cpu::ProgramBuilder&)>;

  virtual ~Backend() = default;

  /// Registry name ("lockiller", "cgl", "tl2", "hybrid").
  virtual const char* name() const = 0;

  /// Emit once at program start, before any transaction: materialize lock /
  /// scratch addresses and record `tid` for per-thread metadata layout.
  virtual void emitProgramStart(cpu::ProgramBuilder& b, unsigned tid,
                                unsigned nthreads) = 0;

  /// One atomic section: the backend brackets `body` with its begin/commit/
  /// abort/retry structure. On fall-through the section has committed
  /// (possibly after retries or on a fallback path).
  virtual void emitTransaction(cpu::ProgramBuilder& b, const BodyFn& body) = 0;

  // ---- access hooks, valid only inside a `body` callback ----
  // `addrReg`/`valReg` are the workload's registers (r1-r5, see the table
  // above).

  /// valReg = *addr.
  virtual void emitRead(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                        unsigned valReg) = 0;
  /// *addr = valReg.
  virtual void emitWrite(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                         unsigned valReg) = 0;
  /// valReg = *addr + delta; *addr = valReg (read-modify-write).
  virtual void emitUpdate(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                          unsigned valReg, std::int64_t delta) = 0;

  // Data-dependent addressing (pointer chasing): the address lives in a
  // register, unknown at emission time. Backends whose conflict detection
  // needs emission-time-static access sets (tl2, hybrid) throw
  // std::invalid_argument with a diagnostic naming the limitation.

  /// rd = *(addrReg + off).
  virtual void emitReadDyn(cpu::ProgramBuilder& b, unsigned rd,
                           unsigned addrReg, std::int64_t off) = 0;
  /// *(addrReg + off) = valReg.
  virtual void emitWriteDyn(cpu::ProgramBuilder& b, unsigned addrReg,
                            unsigned valReg, std::int64_t off) = 0;

  /// True when the backend keeps software-TM metadata above kStmScratchBase
  /// (the runner rejects workloads whose footprint would collide).
  virtual bool usesStmScratch() const { return false; }
};

/// Registers of one HTM attempt loop.
struct HtmLoopRegs {
  unsigned status;   ///< xbegin status
  unsigned retries;  ///< attempts left
  unsigned scratch;  ///< comparison temporary
};

/// Branch points of an emitted attempt.
struct HtmAttempt {
  cpu::ProgramBuilder::Label retry;  ///< the xbegin every retry jumps back to
  std::size_t started;  ///< branch taken when xbegin started a transaction;
                        ///< the caller patches it to its speculative path
};

/// Load the attempt budget and emit the xbegin. Falling through the returned
/// `started` branch is the abort path. Throws std::invalid_argument when
/// `retry.maxRetries` is 0: the budget is decremented before it is tested,
/// so 0 would retry forever and never reach the fallback path.
HtmAttempt emitHtmAttemptStart(cpu::ProgramBuilder& b,
                               const rt::RetryPolicy& retry,
                               const HtmLoopRegs& regs);

/// Abort path of the attempt loop (Listing 1's retry_strategy): consume an
/// attempt, give up at once on a persistent cause (overflow, fault) when
/// `retry.skipRetriesOnPersistent`, give up when the budget is spent, and
/// otherwise back off and jump to `retryLabel`. Returns the give-up branches
/// for the caller to patch to its fallback path.
std::vector<std::size_t> emitHtmAttemptRetry(cpu::ProgramBuilder& b,
                                             const rt::RetryPolicy& retry,
                                             const HtmLoopRegs& regs,
                                             cpu::ProgramBuilder::Label retryLabel);

/// One registry row. Which backend a run uses is its system row's choice
/// (cfg::SystemSpec::backendName).
struct BackendInfo {
  const char* name;     ///< registry key, as artifacts record it
  const char* summary;  ///< one-line mechanism description
};

/// All backends, in presentation order: lockiller, cgl, tl2, hybrid.
const std::vector<BackendInfo>& backendRegistry();

/// Registry names, in order ("lockiller", "cgl", "tl2", "hybrid").
std::vector<std::string> backendNames();

bool isBackendName(const std::string& name);

/// One comma-separated line of the valid names, for diagnostics.
std::string backendNameList();

/// Backend a Table II row 1-9 runs on, from its policy: "cgl" when HTM is
/// disabled, "lockiller" (the policy-driven elision runtime) otherwise.
std::string defaultBackendFor(const core::TmPolicy& policy);

/// Factory. Throws std::invalid_argument listing the valid names on an
/// unknown `name`.
std::unique_ptr<Backend> makeBackend(const std::string& name,
                                     const BackendConfig& cfg);

}  // namespace lktm::tm
