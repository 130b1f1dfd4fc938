// Parameters of the software retry loop around xbegin (Listing 1's
// `retry_strategy`). Exposed separately so benches can ablate them.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/types.hpp"

namespace lktm::rt {

/// Lock algorithm used for the coarse-grained-locking baseline. The fallback
/// lock of the elision runtimes stays test-and-test-and-set (matching real
/// elision implementations); CGL defaults to MCS so the locking baseline is a
/// competent one (per-waiter queue nodes, O(1) coherence traffic on handoff).
enum class LockImpl : unsigned char { TestAndSet, Mcs };

struct RetryPolicy {
  /// Largest spin-backoff value the codegen will load: the backoff register
  /// is doubled *before* it is clamped against the cap, and the CPU's
  /// registers are signed 64-bit, so the cap must leave headroom for one
  /// doubling (2 * ceiling must not overflow int64).
  static constexpr Cycle kSpinBackoffCeiling =
      static_cast<Cycle>(std::numeric_limits<std::int64_t>::max() / 2);

  LockImpl cglLock = LockImpl::Mcs;
  unsigned maxRetries = 8;    ///< attempts before taking the fallback path;
                              ///< at least 1 wherever HTM is attempted
  Cycle backoff = 40;         ///< pause between speculative attempts
  Cycle spinBackoff = 24;     ///< initial pause between lock-word polls
  Cycle spinBackoffMax = 512;  ///< exponential backoff cap while spinning

  /// Overflow-safe views of the spin-backoff knobs — what the codegen
  /// actually emits. A config with a huge cap (e.g. Cycle max) used to make
  /// the emitted `add r,r,r` doubling overflow into negative delays.
  Cycle clampedSpinBackoffMax() const {
    return spinBackoffMax < kSpinBackoffCeiling ? spinBackoffMax
                                                : kSpinBackoffCeiling;
  }
  Cycle clampedSpinBackoff() const {
    const Cycle cap = clampedSpinBackoffMax();
    return spinBackoff < cap ? spinBackoff : cap;
  }

  /// Overflow/fault aborts are persistent: retrying speculation cannot help,
  /// so go straight to the fallback path (standard best-effort practice).
  bool skipRetriesOnPersistent = true;
};

}  // namespace lktm::rt
