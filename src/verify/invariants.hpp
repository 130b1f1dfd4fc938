// The safety and liveness invariants the model checker evaluates at every
// explored state (and, for the reject-priority rule, at every reject send).
// The coherence rules are not restated here: they are coh::CoherenceChecker's,
// the same rule set the runner applies at the end of every run.
//
//  * SWMR            — CoherenceChecker::checkSwmr, at every state: an M/E
//                      copy of a line never coexists with any other valid
//                      copy;
//  * lock-highest    — at most one core is in lock (TL/STL) mode; while the
//                      LLC arbiter has a holder, no other core is in lock
//                      mode; a lock transaction's requests are never held
//                      rejected (it outranks everything, Section III-A);
//  * no-lost-wakeup  — a request parked in WaitingWakeup is always covered:
//                      some responder (an L1 wakeup table or the LLC waiter
//                      table) has it recorded, or its Wakeup is already on
//                      the wire;
//  * reject-priority — a reject is only ever sent by a responder whose
//                      priority key currently beats the requester's carried
//                      snapshot (checked at send time, when the blocker is
//                      guaranteed live);
//  * coherence       — CoherenceChecker::check, the full rule set (SWMR,
//                      value coherence, directory agreement, no busy
//                      directory line), when the event queue drains;
//  * quiescence      — also at drain, the rest of the protocol must be at
//                      rest: no MSHR entries, no writebacks in limbo, no
//                      outstanding inter-bank acks, no open transaction,
//                      nothing in flight. A drained queue that is not
//                      quiescent is a deadlock.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "verify/msg_registry.hpp"

namespace lktm::verify {

struct Violation {
  std::string invariant;  ///< "swmr", "lock-highest", "no-lost-wakeup",
                          ///< "reject-priority", "coherence", "quiescence"
  std::string detail;
};

/// What the invariants need to see. `msgs` may be null (hand-built test
/// states): absent wire knowledge makes no-lost-wakeup strictly stricter,
/// never laxer.
struct SystemView {
  const coh::DirectoryController* dir = nullptr;
  std::vector<const coh::L1Controller*> l1s;
  const MsgRegistry* msgs = nullptr;
  /// Current priority value of a core (the harness owns the counters the
  /// L1's priorityValue callback reads).
  std::function<std::uint64_t(CoreId)> priorityOf = [](CoreId) { return std::uint64_t{0}; };
};

class InvariantPack {
 public:
  /// State-level invariants: SWMR, lock-highest, no-lost-wakeup.
  static std::vector<Violation> checkState(const SystemView& v);

  /// Event-level check at the moment a reject leaves `responder` (kNoCore
  /// for directory-originated RejectResp). `msg` is the reject message.
  static std::optional<Violation> checkReject(const SystemView& v, const coh::Msg& msg,
                                              CoreId responder);

  /// Leaf-level check once the event queue has drained: the full coherence
  /// rule set, then quiescence.
  static std::vector<Violation> checkQuiescent(const SystemView& v);
};

}  // namespace lktm::verify
