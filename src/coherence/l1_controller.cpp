#include "coherence/l1_controller.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "sim/trace.hpp"
#include "stats/path.hpp"

namespace lktm::coh {

using sim::TraceCat;

namespace {

/// The port of an L1 that no CPU drives: priority 0, aborts and STL switches
/// go unobserved. Stateless, so one instance serves every such L1.
class IdleCpuPort final : public L1Controller::CpuPort {
 public:
  std::uint64_t priorityValue() const override { return 0; }
  void onAbort(AbortCause) override {}
  void onSwitchedToStl() override {}
};

L1Controller::CpuPort& idleCpuPort() {
  static IdleCpuPort port;
  return port;
}

}  // namespace

L1Controller::L1Controller(sim::SimContext& ctx, noc::Network& net, CoreId id,
                           mem::CacheGeometry geometry, ProtocolParams params,
                           core::TmPolicy policy, unsigned numCores)
    : ctx_(ctx),
      engine_(ctx.engine()),
      net_(net),
      id_(id),
      cache_(geometry),
      params_(params),
      policy_(policy),
      cm_(policy.conflict, policy.rejectAction),
      numCores_(numCores),
      port_(&idleCpuPort()),
      mshr_(params.mshrCapacity),
      txc_(ctx.stats(), stats::statPath("core", id)),
      hits_(ctx.stats().counter(stats::statPath("core", id, "l1.hits"))),
      misses_(ctx.stats().counter(stats::statPath("core", id, "l1.misses"))) {
  txMarks_.resize((cache_.numEntries() + 63) / 64);
}

// ---------------------------------------------------------------- messaging

void L1Controller::sendToDir(Msg msg) {
  msg.from = id_;
  const noc::NodeId dst =
      static_cast<noc::NodeId>(numCores_ + static_cast<unsigned>(msg.line % numCores_));
  post(ctx_, net_, id_, dst, *dir_, std::move(msg));
}

core::ReqSide L1Controller::myReqSide(bool wantsExclusive) const {
  return core::ReqSide{
      .core = id_,
      .isTx = inAnyTx(),
      .lockMode = isLockMode(mode_),
      .priority = port_->priorityValue(),
      .wantsExclusive = wantsExclusive,
  };
}

core::LocalSide L1Controller::myLocalSide(LineAddr line) const {
  return core::LocalSide{
      .core = id_,
      .lockMode = isLockMode(mode_),
      .priority = port_->priorityValue(),
      .lineIsLockWord = line == lockLine_,
  };
}

// --------------------------------------------------------------- CPU port

void L1Controller::load(Addr addr, DoneValFn done) {
  startOp(CpuOp{.active = true, .kind = OpKind::Load, .addr = addr, .done = std::move(done)});
}

void L1Controller::store(Addr addr, std::uint64_t value, DoneFn done) {
  startOp(CpuOp{.active = true,
                .kind = OpKind::Store,
                .addr = addr,
                .value = value,
                .done = [d = std::move(done)](std::uint64_t) mutable { d(); }});
}

void L1Controller::cas(Addr addr, std::uint64_t expect, std::uint64_t desired,
                       DoneValFn done) {
  startOp(CpuOp{.active = true,
                .kind = OpKind::Cas,
                .addr = addr,
                .value = desired,
                .expect = expect,
                .done = std::move(done)});
}

bool L1Controller::loadStaysAt(Addr addr, std::uint64_t value) const {
  if (op_.active || mode_ != TxMode::None || switchPending_ || hlBeginDone_ != nullptr ||
      !mshr_.empty()) {
    return false;
  }
  const mem::CacheEntry* e = cache_.find(lineOf(addr));
  return e != nullptr && e->data[wordOf(addr)] == value;
}

void L1Controller::creditHits(Addr addr, std::uint64_t n) {
  if (n == 0) return;
  mem::CacheEntry* e = cache_.find(lineOf(addr));
  if (e == nullptr) {
    throw std::logic_error("L1 c" + std::to_string(id_) +
                           ": a parked CPU's line left the cache without waking it");
  }
  hits_ += n;
  cache_.touch(*e, n);
}

void L1Controller::latchLoad(Addr addr, DoneValFn done) {
  if (op_.active) throw std::logic_error("L1 already has an outstanding CPU op");
  op_ = CpuOp{.active = true, .kind = OpKind::Load, .addr = addr, .done = std::move(done)};
}

void L1Controller::scheduleLookup(const sim::SpinLoop& loop) {
  engine_.queue().scheduleUnparked(loop, [this]() {
    if (op_.active) lookupAndHandle();
  });
}

void L1Controller::startOp(CpuOp op) {
  if (op_.active) throw std::logic_error("L1 already has an outstanding CPU op");
  op_ = std::move(op);
  engine_.schedule(params_.l1HitLatency, [this]() {
    if (op_.active) lookupAndHandle();
  });
}

void L1Controller::lookupAndHandle() {
  const LineAddr line = lineOf(op_.addr);
  mem::CacheEntry* e = cache_.find(line);
  const bool needExclusive = op_.kind != OpKind::Load;
  if (e != nullptr &&
      (!needExclusive || e->state == mem::MesiState::E || e->state == mem::MesiState::M)) {
    ++hits_;
    completeOnLine(*e);
    return;
  }
  ++misses_;
  // A squashed request (from an aborted transaction) may still be in flight
  // for this line — or for another line of the same set, whose fill will
  // consume the one reserved way. Wait for it to drain before re-requesting.
  bool setBusy = mshr_.full();
  mshr_.forEachUnordered([&](const mem::MshrEntry& m) {
    if (m.line == line || cache_.setOf(m.line) == cache_.setOf(line)) setBusy = true;
  });
  if (setBusy) {
    engine_.schedule(4, [this]() {
      if (op_.active) lookupAndHandle();
    });
    return;
  }
  if (e != nullptr) {
    // S->M upgrade: no victim needed, the line is already resident.
    issueRequest(line, /*wantsExclusive=*/true);
    return;
  }
  if (!reserveVictim(line)) return;  // aborted or applyingHLA; op parked/squashed
  issueRequest(line, needExclusive);
}

void L1Controller::completeOnLine(mem::CacheEntry& e) {
  cache_.touch(e);
  const unsigned w = wordOf(op_.addr);
  if (inAnyTx()) {
    markTx(e);
    if (op_.kind == OpKind::Load) {
      e.txRead = true;
    } else {
      // First speculative store to a line that is dirty with *pre-transaction*
      // data: flush the pre-image to the LLC first (WbClean), so an abort can
      // simply invalidate and the Fig 3 NACK path serves original data.
      if (mode_ == TxMode::Htm && !e.txWrite && e.dirty) {
        Msg wbc{.type = MsgType::WbClean, .line = e.line, .data = e.data, .hasData = true};
        sendToDir(std::move(wbc));
      }
      e.txWrite = true;
    }
  }
  std::uint64_t result = 0;
  switch (op_.kind) {
    case OpKind::Load:
      result = e.data[w];
      break;
    case OpKind::Store:
      e.data[w] = op_.value;
      e.state = mem::MesiState::M;
      e.dirty = true;
      break;
    case OpKind::Cas:
      result = e.data[w];
      if (result == op_.expect) {
        e.data[w] = op_.value;
        e.state = mem::MesiState::M;
        e.dirty = true;
      }
      break;
  }
  auto done = std::move(op_.done);
  op_ = CpuOp{};
  done(result);
}

bool L1Controller::reserveVictim(LineAddr line) {
  if (cache_.invalidWay(line) != nullptr) return true;
  mem::CacheEntry* v =
      cache_.lruWay(line, [](const mem::CacheEntry& e) { return !e.transactional(); });
  if (v != nullptr) {
    evictForSpace(*v);
    return true;
  }
  // Every way of the set belongs to the running transaction's read/write set.
  if (isLockMode(mode_)) {
    // HTMLock: spill into the LLC overflow signatures instead of aborting.
    v = cache_.lruWay(line, [](const mem::CacheEntry&) { return true; });
    assert(v != nullptr);
    evictTxLine(*v);
    return true;
  }
  assert(mode_ == TxMode::Htm && "tx bits outside a transaction");
  if (policy_.switching && !triedSwitch_) {
    // switchingMode (Fig 6): revoke the CPU request, block external requests
    // (applyingHLA) and ask the LLC for STL admission.
    triedSwitch_ = true;
    switchPending_ = true;
    ++txc_.switchAttempts;
    Msg req{.type = MsgType::HlaReq, .line = 0, .hlaMode = TxMode::STL};
    sendToDir(std::move(req));
    return false;
  }
  txAbort(AbortCause::Overflow);
  return false;
}

void L1Controller::evictForSpace(mem::CacheEntry& v) {
  assert(!v.transactional());
  if (v.state == mem::MesiState::M && v.dirty) {
    wb_[v.line] = v.data;
    Msg put{.type = MsgType::PutM, .line = v.line, .data = v.data, .hasData = true};
    sendToDir(std::move(put));
  }
  // Clean E/S lines are dropped silently; the directory discovers staleness
  // lazily (owner re-request or FwdAckTxInv).
  v.invalidate();
}

void L1Controller::evictTxLine(mem::CacheEntry& v) {
  assert(isLockMode(mode_));
  const bool isWr = v.txWrite;
  (isWr ? ofWr_ : ofRd_).insert(v.line);
  Msg sig{.type = MsgType::SigAdd, .line = v.line, .sigIsWrite = isWr};
  if (v.dirty) {
    // Lock-transaction stores are irrevocable, so spilled dirty data is real
    // data: it writes back with the signature notification.
    wb_[v.line] = v.data;
    sig.data = v.data;
    sig.hasData = true;
  }
  sendToDir(std::move(sig));
  v.invalidate();
}

void L1Controller::issueRequest(LineAddr line, bool wantsExclusive) {
  mem::MshrEntry& m = mshr_.allocate(line);
  m.isWrite = wantsExclusive;
  m.fromTx = inAnyTx();
  m.priority = port_->priorityValue();
  Msg req{.type = wantsExclusive ? MsgType::GetX : MsgType::GetS,
          .line = line,
          .req = myReqSide(wantsExclusive)};
  sendToDir(std::move(req));
}

void L1Controller::reissue(mem::MshrEntry& m) {
  m.state = mem::MshrState::Issued;
  m.earlyWakeup = false;
  ++m.retries;
  m.priority = port_->priorityValue();
  Msg req{.type = m.isWrite ? MsgType::GetX : MsgType::GetS,
          .line = m.line,
          .req = myReqSide(m.isWrite)};
  sendToDir(std::move(req));
}

// --------------------------------------------------------------- HTM port

void L1Controller::txBegin() {
  assert(mode_ == TxMode::None);
  mode_ = TxMode::Htm;
  triedSwitch_ = false;
  sim::traceBegin(ctx_, TraceCat::Txn, "txn", id_);
}

void L1Controller::txCommit(DoneFn done) {
  assert(mode_ == TxMode::Htm);
  clearTxBitsAndWake();
  mode_ = TxMode::None;
  sim::traceEnd(ctx_, TraceCat::Txn, "txn", id_, {"committed", 1});
  engine_.schedule(params_.commitLatency, std::move(done));
}

void L1Controller::txAbort(AbortCause cause) { txAbortInternal(cause, nullptr); }

void L1Controller::txAbortInternal(AbortCause cause, const LineAddr* exceptLine) {
  assert(mode_ == TxMode::Htm && "lock transactions are irrevocable");
  txc_.recordAbort(cause);

  // Squash transactional MSHRs: in-flight ones complete silently; held ones
  // (rejected / waiting for wakeup) have nothing in flight and are dropped.
  std::vector<LineAddr> toRelease;
  mshr_.forEachUnordered([&](mem::MshrEntry& m) {
    if (!m.fromTx) return;
    if (m.state == mem::MshrState::Issued) {
      m.squashed = true;
    } else {
      toRelease.push_back(m.line);
    }
  });
  for (LineAddr l : toRelease) mshr_.release(l);

  // Discard speculatively-written lines; tell the directory so it stops
  // considering us the owner (the LLC still holds pre-images). Like gem5's
  // HTM-extended MESI protocols, drop clean transactionally-read lines too
  // (speculative state is discarded wholesale), so a retried attempt
  // re-misses; dirty pre-transaction data is kept (it is not speculative).
  // Only marked entries can carry tx bits; the rest would fall through to
  // the no-op `txRead = false` branch.
  drainTxMarks([&](mem::CacheEntry& e) {
    if (exceptLine != nullptr && e.line == *exceptLine) return;  // caller handles
    if (e.txWrite) {
      Msg inv{.type = MsgType::TxAbortInv, .line = e.line};
      sendToDir(std::move(inv));
      e.invalidate();
    } else if (e.txRead && !e.dirty) {
      e.invalidate();  // silent drop; the directory learns lazily
    } else {
      e.txRead = false;
    }
  });

  for (const auto& wkp : wakeups_.drainAll()) {
    sendWakeup(wkp.core, wkp.line);
    ++txc_.wakeupsSent;
  }
  mode_ = TxMode::None;
  sim::traceEnd(ctx_, TraceCat::Txn, "txn", id_,
                {"abort_cause", static_cast<std::uint64_t>(cause)});
  if (op_.active) op_ = CpuOp{};  // the CPU rolls back; never complete this op
  port_->onAbort(cause);
}

void L1Controller::clearTxBitsAndWake() {
  drainTxMarks([](mem::CacheEntry& e) { e.txRead = e.txWrite = false; });
  for (const auto& wkp : wakeups_.drainAll()) {
    sendWakeup(wkp.core, wkp.line);
    ++txc_.wakeupsSent;
  }
}

void L1Controller::hlBegin(DoneFn done) {
  assert(mode_ == TxMode::None);
  assert(!hlBeginDone_);
  hlBeginDone_ = std::move(done);
  Msg req{.type = MsgType::HlaReq, .line = 0, .hlaMode = TxMode::TL};
  sendToDir(std::move(req));
}

void L1Controller::hlEnd(DoneFn done) {
  assert(isLockMode(mode_));
  const bool wasStl = mode_ == TxMode::STL;
  clearTxBitsAndWake();
  ofRd_.clear();
  ofWr_.clear();
  Msg clr{.type = MsgType::SigClear, .line = 0};
  sendToDir(std::move(clr));
  mode_ = TxMode::None;
  sim::traceEnd(ctx_, TraceCat::LockMode, "lock_mode", id_);
  // An STL section is the tail of a speculative transaction: its span closes
  // here, after the inner lock-mode span (LIFO nesting per lane).
  if (wasStl) sim::traceEnd(ctx_, TraceCat::Txn, "txn", id_, {"committed", 1});
  engine_.schedule(params_.hlLatency, std::move(done));
}

void L1Controller::sendWakeup(CoreId core, LineAddr line) {
  assert(core != id_);
  sim::traceInstant(ctx_, TraceCat::Wakeup, "wakeup_sent", id_, {"line", line},
                    {"to", static_cast<std::uint64_t>(core)});
  MsgSink* peer = peers_.at(static_cast<std::size_t>(core));
  Msg wake{.type = MsgType::Wakeup, .line = line, .from = id_};
  post(ctx_, net_, id_, core, *peer, std::move(wake));
}

// ------------------------------------------------------------ network port

void L1Controller::onMessage(const Msg& msg) {
  if (cpuParked_) [[unlikely]] {
    cpuParked_ = false;
    port_->wake();
  }
  switch (msg.type) {
    case MsgType::DataE: return onData(msg, /*exclusive=*/true);
    case MsgType::DataS: return onData(msg, /*exclusive=*/false);
    case MsgType::RejectResp: return onRejectResp(msg);
    case MsgType::PutAck:
      wb_.erase(msg.line);
      return;
    case MsgType::Inv: return handleInv(msg);
    case MsgType::FwdGetS: return handleFwd(msg, /*isGetX=*/false);
    case MsgType::FwdGetX: return handleFwd(msg, /*isGetX=*/true);
    case MsgType::Wakeup: return onWakeup(msg);
    case MsgType::HlaGrant: return onHlaGrant();
    case MsgType::HlaDeny: return onHlaDeny();
    default:
      throw std::logic_error(std::string("L1 cannot handle ") + toString(msg.type));
  }
}

void L1Controller::onData(const Msg& msg, bool exclusive) {
  mem::MshrEntry* m = mshr_.find(msg.line);
  if (m == nullptr) throw std::logic_error("data response without MSHR");
  const bool squashed = m->squashed;
  mshr_.release(msg.line);

  mem::CacheEntry* way = cache_.find(msg.line);
  if (way != nullptr) {
    // Upgrade of a still-resident S copy: refresh in place.
    way->state = exclusive ? mem::MesiState::E : mem::MesiState::S;
    way->data = msg.data;
    cache_.touch(*way);
  } else {
    way = cache_.invalidWay(msg.line);
    assert(way != nullptr && "fill target way must be free");
    cache_.install(*way, msg.line, exclusive ? mem::MesiState::E : mem::MesiState::S,
                   msg.data);
  }

  Msg unb{.type = MsgType::Unblock, .line = msg.line};
  sendToDir(std::move(unb));

  if (squashed) return;
  assert(op_.active && lineOf(op_.addr) == msg.line);
  completeOnLine(*way);
}

void L1Controller::onRejectResp(const Msg& msg) {
  mem::MshrEntry* m = mshr_.find(msg.line);
  if (m == nullptr) return;  // stale (already squashed+released)
  ++txc_.rejectsReceived;
  sim::traceInstant(ctx_, TraceCat::Reject, "reject_received", id_,
                    {"line", msg.line});
  if (m->squashed) {
    mshr_.release(msg.line);
    return;
  }
  if (!m->fromTx) {
    // A non-transactional request can only have been rejected by a lock
    // transaction (or the LLC signatures); it simply polls.
    m->state = mem::MshrState::HeldRejected;
    scheduleHeldRetry(msg.line, params_.nonTxRetryDelay);
    return;
  }
  switch (policy_.rejectAction) {
    case core::RejectAction::SelfAbort:
      mshr_.release(msg.line);
      txAbort(msg.rejectHint == AbortCause::None ? AbortCause::MemConflict : msg.rejectHint);
      return;
    case core::RejectAction::RetryLater:
      m->state = mem::MshrState::HeldRejected;
      scheduleHeldRetry(msg.line, params_.retryDelay);
      return;
    case core::RejectAction::WaitWakeup:
      if (m->earlyWakeup) {
        reissue(*m);
      } else {
        m->state = mem::MshrState::WaitingWakeup;
      }
      return;
  }
}

void L1Controller::scheduleHeldRetry(LineAddr line, Cycle delay) {
  engine_.schedule(delay, [this, line]() {
    mem::MshrEntry* m = mshr_.find(line);
    if (m != nullptr && !m->squashed && m->state == mem::MshrState::HeldRejected) {
      reissue(*m);
    }
  });
}

void L1Controller::onWakeup(const Msg& msg) {
  mem::MshrEntry* m = mshr_.find(msg.line);
  if (m == nullptr || m->squashed) return;
  if (m->state == mem::MshrState::WaitingWakeup || m->state == mem::MshrState::HeldRejected) {
    reissue(*m);
  } else {
    m->earlyWakeup = true;  // wakeup overtook the reject response
  }
}

void L1Controller::trySwitchToLockMode(DoneBoolFn done) {
  if (!policy_.switching || triedSwitch_ || mode_ != TxMode::Htm) {
    done(false);
    return;
  }
  triedSwitch_ = true;
  switchPending_ = true;
  switchDone_ = std::move(done);
  ++txc_.switchAttempts;
  Msg req{.type = MsgType::HlaReq, .line = 0, .hlaMode = TxMode::STL};
  sendToDir(std::move(req));
}

void L1Controller::onHlaGrant() {
  if (switchPending_) {
    // switchingMode succeeded: continue the same transaction irrevocably.
    switchPending_ = false;
    mode_ = TxMode::STL;
    ++txc_.switchGrants;
    sim::traceBegin(ctx_, TraceCat::LockMode, "lock_mode", id_,
                    {"mode", static_cast<std::uint64_t>(TxMode::STL)});
    port_->onSwitchedToStl();
    drainBlockedExternal();
    if (switchDone_) {
      auto done = std::move(switchDone_);
      switchDone_ = nullptr;
      done(true);
      return;
    }
    // Resume the CPU request that was revoked by the overflow.
    assert(op_.active);
    engine_.schedule(1, [this]() {
      if (op_.active) lookupAndHandle();
    });
    return;
  }
  assert(hlBeginDone_);
  mode_ = TxMode::TL;
  sim::traceBegin(ctx_, TraceCat::LockMode, "lock_mode", id_,
                  {"mode", static_cast<std::uint64_t>(TxMode::TL)});
  auto done = std::move(hlBeginDone_);
  hlBeginDone_ = nullptr;
  done();
}

void L1Controller::onHlaDeny() {
  assert(switchPending_);
  switchPending_ = false;
  if (switchDone_) {
    auto done = std::move(switchDone_);
    switchDone_ = nullptr;
    drainBlockedExternal();
    done(false);  // caller decides how to die
    return;
  }
  txAbort(AbortCause::Overflow);
  drainBlockedExternal();
}

// ------------------------------------------------------ external requests

void L1Controller::recordRejectedWaiter(LineAddr line, CoreId requester) {
  ++txc_.rejectsSent;
  sim::traceInstant(ctx_, TraceCat::Reject, "reject_sent", id_, {"line", line},
                    {"to", static_cast<std::uint64_t>(requester)});
  if (policy_.rejectAction == core::RejectAction::WaitWakeup || isLockMode(mode_)) {
    wakeups_.record(line, requester);
  }
}

void L1Controller::handleInv(const Msg& msg) {
  if (switchPending_) {
    blockedExternal_.push_back(msg);
    return;
  }
  const LineAddr line = msg.line;
  mem::CacheEntry* e = cache_.find(line);

  // Race closure: we spilled this line into the LLC signatures but the
  // invalidation was already in flight. The lock transaction still owns it.
  if (isLockMode(mode_) && (ofRd_.count(line) != 0 || ofWr_.count(line) != 0)) {
    recordRejectedWaiter(line, msg.req.core);
    Msg rej{.type = MsgType::InvReject, .line = line, .rejectHint = AbortCause::LockConflict};
    sendToDir(std::move(rej));
    return;
  }

  const bool conflict = e != nullptr && e->transactional();
  if (conflict) {
    const auto d = cm_.decide(myLocalSide(line), msg.req);
    if (d.rejectRequester) {
      recordRejectedWaiter(line, msg.req.core);
      Msg rej{.type = MsgType::InvReject,
              .line = line,
              .rejectHint = isLockMode(mode_) ? AbortCause::LockConflict
                                              : AbortCause::MemConflict};
      sendToDir(std::move(rej));
      return;
    }
    // Inv only reaches S copies, which are never speculatively written, so
    // the line survives the abort walk; invalidate it as part of compliance.
    assert(!e->txWrite);
    txAbortInternal(d.abortCause, nullptr);
    e = cache_.find(line);  // abort cleared bits but kept the S line
  }
  if (e != nullptr) e->invalidate();
  Msg ack{.type = MsgType::InvAck, .line = line};
  sendToDir(std::move(ack));
}

void L1Controller::handleFwd(const Msg& msg, bool isGetX) {
  if (switchPending_) {
    blockedExternal_.push_back(msg);
    return;
  }
  const LineAddr line = msg.line;
  mem::CacheEntry* e = cache_.find(line);

  if (e == nullptr) {
    // Overflowed lock-transaction lines are still conflicts (signature race).
    if (isLockMode(mode_) &&
        (ofWr_.count(line) != 0 || (isGetX && ofRd_.count(line) != 0))) {
      recordRejectedWaiter(line, msg.req.core);
      Msg rej{.type = MsgType::FwdReject, .line = line, .rejectHint = AbortCause::LockConflict};
      sendToDir(std::move(rej));
      return;
    }
    const mem::LineData* wbData = wb_.find(line);
    if (wbData != nullptr) {
      // Eviction raced the forward: serve from the writeback buffer.
      Msg ack{.type = MsgType::FwdAck, .line = line, .data = *wbData,
              .hasData = true, .keptCopy = false};
      sendToDir(std::move(ack));
      return;
    }
    // Aborted speculative line or silently-dropped clean copy: the LLC data
    // is current; let the directory serve the requester exclusively (Fig 3).
    Msg ack{.type = MsgType::FwdAckTxInv, .line = line};
    sendToDir(std::move(ack));
    return;
  }

  const bool conflict = e->txWrite || (isGetX && e->txRead);
  if (conflict) {
    const auto d = cm_.decide(myLocalSide(line), msg.req);
    if (d.rejectRequester) {
      recordRejectedWaiter(line, msg.req.core);
      Msg rej{.type = MsgType::FwdReject,
              .line = line,
              .rejectHint = isLockMode(mode_) ? AbortCause::LockConflict
                                              : AbortCause::MemConflict};
      sendToDir(std::move(rej));
      return;
    }
    if (e->txWrite) {
      // Speculative data must never escape: abort, self-invalidate, and send
      // the Fig 3 NACK so the directory serves original data from the LLC.
      txAbortInternal(d.abortCause, &line);
      e->invalidate();
      Msg ack{.type = MsgType::FwdAckTxInv, .line = line};
      sendToDir(std::move(ack));
      return;
    }
    // Read-set conflict (exclusive request vs tx-read line): abort, then
    // comply. The abort walk may have flushed this clean read line already,
    // in which case the LLC copy is current and serves the requester.
    txAbortInternal(d.abortCause, nullptr);
    e = cache_.find(line);
    if (e == nullptr) {
      Msg ack{.type = MsgType::FwdAckTxInv, .line = line};
      sendToDir(std::move(ack));
      return;
    }
  }
  complyFwd(*e, isGetX);
}

void L1Controller::complyFwd(mem::CacheEntry& e, bool isGetX) {
  Msg ack{.type = MsgType::FwdAck, .line = e.line};
  if (e.dirty) {
    ack.data = e.data;
    ack.hasData = true;
  }
  if (isGetX) {
    ack.keptCopy = false;
    e.invalidate();
  } else {
    ack.keptCopy = true;
    e.state = mem::MesiState::S;
    e.dirty = false;
  }
  sendToDir(std::move(ack));
}

void L1Controller::drainBlockedExternal() {
  while (!blockedExternal_.empty()) {
    const Msg m = blockedExternal_.front();
    blockedExternal_.pop_front();
    if (m.type == MsgType::Inv) {
      handleInv(m);
    } else {
      handleFwd(m, m.type == MsgType::FwdGetX);
    }
  }
}

std::string L1Controller::diagnostic() const {
  std::ostringstream oss;
  oss << "L1 c" << id_ << ": mode=" << toString(mode_) << " mshr=" << mshr_.size()
      << " wb=" << wb_.size() << (op_.active ? " op-active" : "")
      << (switchPending_ ? " applyingHLA" : "");
  return oss.str();
}

void L1Controller::hashState(sim::StateHasher& h) const {
  h.section(0x20);
  h.put(static_cast<std::uint64_t>(id_));
  cache_.hashState(h);

  h.section(0x21);  // CPU op latch
  h.putBool(op_.active);
  if (op_.active) {
    h.put(static_cast<std::uint64_t>(op_.kind));
    h.put(op_.addr);
    h.put(op_.value);
    h.put(op_.expect);
  }

  h.section(0x22);  // MSHR (retries excluded: they only pace, never branch)
  mshr_.forEach([&](const mem::MshrEntry& m) {
    h.put(m.line);
    h.put(static_cast<std::uint64_t>(m.state) | (m.isWrite ? 8u : 0u) |
          (m.fromTx ? 16u : 0u) | (m.squashed ? 32u : 0u) |
          (m.earlyWakeup ? 64u : 0u));
    h.put(m.priority);
  });

  h.section(0x23);  // writeback buffer
  wb_.forEachOrdered([&](LineAddr line, const mem::LineData& data) {
    h.put(line);
    for (std::uint64_t word : data) h.put(word);
  });

  h.section(0x24);  // wakeup waiters recorded at this responder
  wakeups_.forEach([&](LineAddr line, CoreId core) {
    h.put(line);
    h.put(static_cast<std::uint64_t>(core));
  });

  h.section(0x25);  // local view of the LLC overflow signatures
  ofRd_.forEachOrdered([&](LineAddr line) { h.put(line); });
  h.section(0x26);
  ofWr_.forEachOrdered([&](LineAddr line) { h.put(line); });

  h.section(0x27);  // mode + switch machinery
  h.put(static_cast<std::uint64_t>(mode_) | (triedSwitch_ ? 8u : 0u) |
        (switchPending_ ? 16u : 0u) | (hlBeginDone_ != nullptr ? 32u : 0u) |
        (switchDone_ != nullptr ? 64u : 0u));
  for (const Msg& m : blockedExternal_) h.put(msgFingerprint(m));
}

}  // namespace lktm::coh
