#include "verify/invariants.hpp"

#include <sstream>

#include "coherence/checker.hpp"
#include "core/priority.hpp"

namespace lktm::verify {

namespace {

/// The parts, concatenated as a stream prints them.
template <class... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream oss;
  (oss << ... << parts);
  return oss.str();
}

std::string describeLine(LineAddr line) { return cat("line ", line); }

void checkLockHighest(const SystemView& v, std::vector<Violation>& out) {
  CoreId locker = kNoCore;
  for (std::size_t c = 0; c < v.l1s.size(); ++c) {
    if (!isLockMode(v.l1s[c]->mode())) continue;
    if (locker != kNoCore) {
      out.push_back(Violation{"lock-highest",
                              cat("cores c", locker, " and c", c, " are both in lock mode")});
    }
    locker = static_cast<CoreId>(c);
  }
  const core::SwitchArbiter& arb = v.dir->arbiter();
  if (arb.active() && locker != kNoCore && locker != arb.holder()) {
    out.push_back(Violation{"lock-highest", cat("c", locker,
                                                " is in lock mode but the LLC arbiter granted c",
                                                arb.holder())});
  }
  // Every bank's lock mirror trails the arbiter through the set/clear
  // broadcasts, but must never name a *different* holder: mirrors are only
  // set after the arbiter granted and cleared before it releases.
  for (unsigned b = 0; b < v.dir->numBanks(); ++b) {
    const CoreId mirrored = v.dir->htmlockUnit(b).lockHolder();
    if (mirrored == kNoCore) continue;
    if (!arb.active() || mirrored != arb.holder()) {
      out.push_back(Violation{
          "lock-highest",
          cat("bank ", b, " mirrors lock holder c", mirrored, " but the arbiter ",
              arb.active() ? cat("granted c", arb.holder()) : std::string("is idle"))});
    }
  }
  if (locker != kNoCore) {
    // The lock transaction outranks everything, so its requests are never
    // held: every MSHR entry it owns must still be in Issued state.
    v.l1s[static_cast<std::size_t>(locker)]->mshrFile().forEach(
        [&](const mem::MshrEntry& m) {
          if (m.state != mem::MshrState::Issued && !m.squashed) {
            out.push_back(Violation{
                "lock-highest", cat("lock transaction on c", locker, " has a held request (",
                                    mem::toString(m.state), ") for ", describeLine(m.line))});
          }
        });
  }
}

void checkNoLostWakeup(const SystemView& v, std::vector<Violation>& out) {
  for (std::size_t c = 0; c < v.l1s.size(); ++c) {
    const CoreId core = static_cast<CoreId>(c);
    v.l1s[c]->mshrFile().forEach([&](const mem::MshrEntry& m) {
      if (m.state != mem::MshrState::WaitingWakeup || m.squashed || m.earlyWakeup) return;
      bool covered = false;
      for (const coh::L1Controller* peer : v.l1s) {
        peer->wakeupTable().forEach([&](LineAddr line, CoreId waiter) {
          if (line == m.line && waiter == core) covered = true;
        });
      }
      for (unsigned b = 0; b < v.dir->numBanks(); ++b) {
        v.dir->htmlockUnit(b).waiters().forEach([&](LineAddr line, CoreId waiter) {
          if (line == m.line && waiter == core) covered = true;
        });
      }
      if (!covered && v.msgs != nullptr) {
        // L1 node ids equal core ids.
        covered = v.msgs->anyInFlightTo(core, coh::MsgType::Wakeup, m.line);
      }
      if (!covered) {
        out.push_back(Violation{
            "no-lost-wakeup",
            cat("c", core, " waits for a wakeup on ", describeLine(m.line),
                " but no responder has it recorded and none is in flight")});
      }
    });
  }
}

}  // namespace

std::vector<Violation> InvariantPack::checkState(const SystemView& v) {
  std::vector<Violation> out;
  for (std::string& s : coh::CoherenceChecker(v.l1s, v.dir).checkSwmr()) {
    out.push_back(Violation{"swmr", std::move(s)});
  }
  checkLockHighest(v, out);
  checkNoLostWakeup(v, out);
  return out;
}

std::optional<Violation> InvariantPack::checkReject(const SystemView& v,
                                                    const coh::Msg& msg,
                                                    CoreId responder) {
  if (msg.type == coh::MsgType::InvReject || msg.type == coh::MsgType::FwdReject) {
    const core::ReqSide* req = v.dir->pendingReq(msg.line);
    if (req == nullptr) {
      return Violation{"reject-priority", cat("c", responder, " rejected on ",
                                              describeLine(msg.line),
                                              " with no transaction pending there")};
    }
    const coh::L1Controller* l1 = v.l1s.at(static_cast<std::size_t>(responder));
    const core::PrioKey local{isLockMode(l1->mode()), v.priorityOf(responder), responder};
    const core::PrioKey remote{req->lockMode, req->priority, req->core};
    if (!local.beats(remote)) {
      return Violation{"reject-priority",
                       cat("c", responder, " (key ", local.str(), ") rejected c", req->core,
                           " (key ", remote.str(), ") on ", describeLine(msg.line),
                           " without outranking it")};
    }
    return std::nullopt;
  }
  if (msg.type == coh::MsgType::RejectResp &&
      msg.rejectHint == AbortCause::LockConflict) {
    // A lock-attributed reject from the directory needs lock evidence: an
    // active arbiter slot, overflow signatures, or a core in lock mode.
    bool lockerExists = v.dir->arbiter().active() || v.dir->anyOverflow();
    for (const coh::L1Controller* l1 : v.l1s) lockerExists |= isLockMode(l1->mode());
    if (!lockerExists) {
      return Violation{"reject-priority",
                       "directory sent a LockConflict reject on " + describeLine(msg.line) +
                           " with no lock transaction anywhere"};
    }
  }
  return std::nullopt;
}

std::vector<Violation> InvariantPack::checkQuiescent(const SystemView& v) {
  std::vector<Violation> out;
  for (std::string& s : coh::CoherenceChecker(v.l1s, v.dir).check()) {
    out.push_back(Violation{"coherence", std::move(s)});
  }
  if (v.dir->interBankAcksPending() != 0) {
    out.push_back(Violation{"quiescence",
                            std::to_string(v.dir->interBankAcksPending()) +
                                " inter-bank lock/clear ack(s) outstanding at drain"});
  }
  for (std::size_t c = 0; c < v.l1s.size(); ++c) {
    const coh::L1Controller* l1 = v.l1s[c];
    const std::string who = cat("c", c);
    if (!l1->mshrFile().empty()) {
      std::ostringstream oss;
      oss << who << " has " << l1->mshrFile().size() << " MSHR entr(ies) at drain:";
      l1->mshrFile().forEach([&](const mem::MshrEntry& m) {
        oss << " [" << describeLine(m.line) << " " << mem::toString(m.state) << "]";
      });
      out.push_back(Violation{"quiescence", oss.str()});
    }
    if (l1->writebackBufferSize() != 0) {
      out.push_back(Violation{"quiescence", who + " has writebacks awaiting PutAck at drain"});
    }
    if (l1->busy()) {
      out.push_back(Violation{"quiescence", who + " has an incomplete CPU op at drain"});
    }
    if (l1->applyingHla()) {
      out.push_back(Violation{"quiescence", who + " is stuck applyingHLA at drain"});
    }
    if (l1->mode() != TxMode::None) {
      out.push_back(Violation{"quiescence", who + " still has an open transaction at drain"});
    }
  }
  if (v.msgs != nullptr && !v.msgs->empty()) {
    out.push_back(Violation{"quiescence", std::to_string(v.msgs->size()) +
                                              " message(s) in flight with a drained queue"});
  }
  return out;
}

}  // namespace lktm::verify
