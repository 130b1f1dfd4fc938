// TL2-style software transactional memory as bytecode emission.
//
// Architecture (the classic global-version-clock design):
//  * a global commit clock (one word, kClockAddr);
//  * a table of versioned ownership records (orecs) keyed like FlatLineTable
//    (the same mixKey hash over the line address, masked to kNumOrecs);
//    an orec word encodes `version << 1 | locked`;
//  * per-thread redo logs and saved-version slots in a private scratch area;
//  * reads validate against the transaction's read version (rv = clock at
//    start) inline and again at commit; writes buffer into the redo log and
//    publish during a locked commit phase, program order, last write wins.
//
// Because workload access sets are static at emission time, the whole
// transaction — inline read checks, commit-time lock acquisition, read-set
// validation, writeback, release, and the abort/undo path — unrolls into
// straight-line bytecode with constant-folded addresses. Conflicts are
// resolved by try-lock + abort + randomized exponential backoff (an emitted
// per-thread xorshift64 jitters every delay — see kRegRnd below; no
// blocking, no deadlock); aborts are pulsed to the stats spine via Op::Note
// (kNoteStmAbortLock / kNoteStmAbortValidation) and commits via
// kNoteStmCommit.
//
// Simulated memory reads absent lines as zero, so the clock starts at 0 and
// every orec starts unlocked at version 0 — no initialization pass needed.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "runtime/backends/backend.hpp"
#include "sim/flat_table.hpp"

namespace lktm::tm {

// ---- metadata layout inside the scratch region ----
inline constexpr Addr kClockAddr = kStmScratchBase;  ///< global commit clock
inline constexpr unsigned kOrecBits = 10;
inline constexpr std::size_t kNumOrecs = std::size_t{1} << kOrecBits;
/// One orec per cache line so hybrid HTM attempts that read/stamp orecs
/// transactionally never see false conflicts between distinct orecs.
inline constexpr Addr kOrecBase = kStmScratchBase + kLineBytes;
inline constexpr Addr kThreadScratchBase = kStmScratchBase + 0x20'0000;
inline constexpr Addr kThreadScratchStride = 0x1'0000;  ///< 64 KiB per thread
inline constexpr Addr kSavedVerOffset = 0x1000;  ///< saved-version slots
inline constexpr std::size_t kMaxWriteSet = 256;  ///< redo-log slots per tx

// ---- orec word encoding: version << 1 | locked ----
inline constexpr std::uint64_t kOrecLockedBit = 1;
/// Versions occupy the upper 63 bits; encodeOrec masks (wraps) past this.
/// Unreachable in practice: the clock advances once per committed writer.
inline constexpr std::uint64_t kMaxOrecVersion = ~std::uint64_t{0} >> 1;

constexpr std::uint64_t encodeOrec(std::uint64_t version) {
  return (version & kMaxOrecVersion) << 1;
}
constexpr bool orecLocked(std::uint64_t word) { return (word & kOrecLockedBit) != 0; }
constexpr std::uint64_t orecVersion(std::uint64_t word) { return word >> 1; }
/// Lock word: owner tid in the version bits, locked bit set — never mistaken
/// for a version because validation checks the locked bit first.
constexpr std::uint64_t orecLockWord(unsigned tid) {
  return (static_cast<std::uint64_t>(tid + 1) << 1) | kOrecLockedBit;
}

/// FlatLineTable-style keying: mix the line address, mask to the table.
inline std::size_t orecIndexOf(Addr addr) {
  return static_cast<std::size_t>(sim::flat_detail::mixKey(lineOf(addr))) &
         (kNumOrecs - 1);
}
inline Addr orecAddrOf(Addr addr) {
  return kOrecBase + static_cast<Addr>(orecIndexOf(addr)) * kLineBytes;
}
inline Addr threadScratchBase(unsigned tid) {
  return kThreadScratchBase + static_cast<Addr>(tid) * kThreadScratchStride;
}

// Registers the STM emitters reserve (see the table in backend.hpp).
inline constexpr unsigned kRegT1 = 31;
inline constexpr unsigned kRegT2 = 30;
inline constexpr unsigned kRegT3 = 29;
inline constexpr unsigned kRegCode = 28;  ///< abort-cause selector
inline constexpr unsigned kRegRv = 24;    ///< read version (clock at start)
inline constexpr unsigned kRegWv = 23;    ///< write version (clock after bump)
inline constexpr unsigned kRegHeld = 22;  ///< orec locks acquired so far
inline constexpr unsigned kRegBk = 21;    ///< backoff accumulator
/// Per-thread xorshift64 state, seeded once at program start (emitSeedInit)
/// and advanced on every backoff. The simulator is fully deterministic, so
/// without jitter two threads whose transactions lock overlapping orec sets
/// in opposite orders (A,B vs B,A) phase-lock into a permanent mutual-abort
/// livelock once both reach the backoff cap; the jitter breaks the symmetry
/// while keeping every run bit-reproducible (the seed is a pure function of
/// tid). Lives below the T1-T3/code/rv/wv/held/bk block and above workload
/// registers (r1-r5) — it must survive the whole program, not one attempt.
inline constexpr unsigned kRegRnd = 20;

/// Shared TL2 emission engine: Tl2Backend uses it for every transaction, the
/// hybrid backend for its software fallback path. One instance per program
/// being built (it carries per-transaction emission state).
class Tl2Emitter {
 public:
  void setThread(unsigned tid) { tid_ = tid; }

  /// Seed kRegRnd with a per-thread splitmix64 constant. Must run once at
  /// program start (before the first emitStmTransaction) on every path that
  /// can reach the backoff code — both the pure-STM backend and the hybrid
  /// backend's software fallback.
  void emitSeedInit(cpu::ProgramBuilder& b);

  /// Emit a complete software transaction: attempt loop, inline-checked
  /// reads/redo-logged writes (via the hooks below, called back through
  /// `body`), locked commit with validation and writeback, and the
  /// abort/undo/backoff path. Leaves the time category at TimeCat::Htm
  /// (speculative work); the caller marks the post-transaction category.
  void emitStmTransaction(cpu::ProgramBuilder& b, const Backend::BodyFn& body);

  // Hooks — only valid while emitStmTransaction is inside `body`.
  void read(cpu::ProgramBuilder& b, Addr addr, unsigned valReg);
  void write(cpu::ProgramBuilder& b, Addr addr, unsigned valReg);
  void update(cpu::ProgramBuilder& b, Addr addr, unsigned valReg,
              std::int64_t delta);

 private:
  // Abort-cause selector values (kRegCode) — routed to Note codes.
  static constexpr std::int64_t kBusy = 2;
  static constexpr std::int64_t kValidation = 3;
  struct Pending {
    std::size_t at;     ///< branch instruction to patch
    std::int64_t code;  ///< kBusy or kValidation
  };

  unsigned tid_ = 0;

  // Per-transaction emission state (reset by emitStmTransaction).
  std::map<Addr, unsigned> writeSlots_;        ///< address -> redo-log slot
  std::vector<Addr> writeOrder_;               ///< first-write order (unique)
  std::vector<Addr> writeOrecs_;               ///< orec addrs, first-occurrence order
  std::vector<Addr> readOrecs_;                ///< orec addrs, first-occurrence order
  std::vector<Pending> aborts_;                ///< branches to the abort stubs

  Addr redoSlotAddr(unsigned slot) const {
    return threadScratchBase(tid_) + 8 * static_cast<Addr>(slot);
  }
  Addr savedVerAddr(unsigned j) const {
    return threadScratchBase(tid_) + kSavedVerOffset + 8 * static_cast<Addr>(j);
  }
  Cycle backoffBase() const { return kRetryBackoff + 17 * tid_; }
  Cycle backoffCap() const {
    return kSpinBackoffCap > backoffBase() ? kSpinBackoffCap : backoffBase();
  }
};

/// The pure-software Table II row ("TL2-STM"): every transaction runs through
/// Tl2Emitter; the HTM hardware is never engaged.
class Tl2Backend final : public Backend {
 public:
  const char* name() const override { return "tl2"; }
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
  Tl2Emitter emitter_;
};

}  // namespace lktm::tm
