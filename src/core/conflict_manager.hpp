// Conflict detection outcome policy — the heart of LockillerTM's recovery
// mechanism, and the requester-wins baseline it replaces.
//
// A *conflict* exists when an external request touches a line in the local
// transaction's read/write set incompatibly (any request vs tx-written line;
// exclusive request vs tx-read line). The manager decides, at the responder,
// whether the local transaction aborts (requester wins) or the request is
// revoked with a data-less REJECT (recovery mechanism, Fig 4's green logic).
#pragma once

#include <cstdint>

#include "core/priority.hpp"
#include "sim/types.hpp"

namespace lktm::core {

enum class ConflictPolicy : std::uint8_t {
  RequesterWins,  ///< commercial best-effort HTM behaviour
  Recovery,       ///< reject toxic requests per the recovery mechanism
};

/// What a requester does when its held request comes back rejected
/// (the paper's three options: "abort directly, pause for a fixed period
/// before retrying, or wait for a wake-up before retrying").
enum class RejectAction : std::uint8_t {
  SelfAbort,   ///< Lockiller-RAI
  RetryLater,  ///< Lockiller-RRI
  WaitWakeup,  ///< Lockiller-RWI (and all HTMLock systems)
};

const char* toString(ConflictPolicy p);
const char* toString(RejectAction a);

/// Static description of the requesting side of a conflict, as carried by the
/// coherence message.
struct ReqSide {
  CoreId core = kNoCore;
  bool isTx = false;      ///< request issued from inside an HTM transaction
  bool lockMode = false;  ///< requester is a TL/STL lock transaction
  std::uint64_t priority = 0;
  bool wantsExclusive = false;  ///< GETX/UPGRADE vs GETS
};

/// The responding side: the local transaction holding the line.
struct LocalSide {
  CoreId core = kNoCore;
  bool lockMode = false;        ///< responder is a TL/STL lock transaction
  std::uint64_t priority = 0;
  bool lineIsLockWord = false;  ///< conflicting address is the fallback lock
};

struct Decision {
  bool rejectRequester = false;   ///< send REJECT, keep local state
  AbortCause abortCause = AbortCause::None;  ///< cause if local aborts
};

/// Complete TM policy of an evaluated system (one row of the paper's
/// Table II is a TmPolicy + a runtime flavour).
struct TmPolicy {
  bool htmEnabled = true;           ///< false => CGL (no speculation at all)
  ConflictPolicy conflict = ConflictPolicy::RequesterWins;
  RejectAction rejectAction = RejectAction::SelfAbort;
  PriorityKind priority = PriorityKind::None;
  bool htmLock = false;     ///< HTMLock mechanism (TL mode + LLC signatures)
  bool switching = false;   ///< switchingMode mechanism (STL on overflow)
  /// Extension beyond the paper (it deliberately aborts on exceptions,
  /// Section III-C): also attempt the STL switch on a fault inside the
  /// transaction. Off in every Table II system; the "+sof" system-name
  /// token turns it on (cfg::systemByName), as in ablation (e).
  bool switchOnFault = false;
};

class ConflictManager {
 public:
  ConflictManager(ConflictPolicy policy, RejectAction rejectAction)
      : policy_(policy), rejectAction_(rejectAction) {}

  ConflictPolicy policy() const { return policy_; }
  RejectAction rejectAction() const { return rejectAction_; }

  /// Decide a detected conflict at the responder.
  Decision decide(const LocalSide& local, const ReqSide& req) const;

  /// Classify why the local transaction dies to this requester.
  static AbortCause classify(const LocalSide& local, const ReqSide& req);

 private:
  ConflictPolicy policy_;
  RejectAction rejectAction_;
};

}  // namespace lktm::core
