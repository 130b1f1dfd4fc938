// Timing and structural knobs of the memory hierarchy (paper Table I).
#pragma once

#include "mem/cache_array.hpp"
#include "sim/types.hpp"

namespace lktm::coh {

struct ProtocolParams {
  Cycle l1HitLatency = 2;    ///< Table I: L1 2-cycle hit
  Cycle llcLatency = 12;     ///< Table I: L2 12-cycle hit
  Cycle memLatency = 100;    ///< Table I: memory 100-cycle
  Cycle commitLatency = 3;   ///< flash-clear of tx bits at xend
  Cycle hlLatency = 2;       ///< hlbegin/hlend local cost (load-like)

  /// Recovery mechanism: fixed pause of the SelfRetryLater policy.
  Cycle retryDelay = 64;
  /// Backoff of a rejected non-transactional request (it cannot wait for a
  /// transaction-scoped wakeup, so it polls).
  Cycle nonTxRetryDelay = 48;

  unsigned mshrCapacity = 4;
};

}  // namespace lktm::coh
