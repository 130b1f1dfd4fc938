// Parameters of the software retry loop around xbegin (Listing 1's
// `retry_strategy`). Every Table II row keeps the defaults; a system name
// changes them with the "+retries=N", "+noskip" and "+lock=tts" tokens
// (cfg::systemByName).
#pragma once

#include "sim/types.hpp"

namespace lktm::rt {

/// Lock algorithm used for the coarse-grained-locking baseline. The fallback
/// lock of the elision runtimes stays test-and-test-and-set (matching real
/// elision implementations); CGL defaults to MCS so the locking baseline is a
/// competent one (per-waiter queue nodes, O(1) coherence traffic on handoff).
enum class LockImpl : unsigned char { TestAndSet, Mcs };

struct RetryPolicy {
  LockImpl cglLock = LockImpl::Mcs;
  unsigned maxRetries = 8;    ///< attempts before taking the fallback path;
                              ///< at least 1 wherever HTM is attempted

  /// Overflow/fault aborts are persistent: retrying speculation cannot help,
  /// so go straight to the fallback path (standard best-effort practice).
  bool skipRetriesOnPersistent = true;
};

}  // namespace lktm::rt
