#include "coherence/directory.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "sim/trace.hpp"
#include "stats/path.hpp"

namespace lktm::coh {

using sim::TraceCat;
using sim::kDirectoryLane;

DirectoryController::DirectoryController(sim::SimContext& ctx, noc::Network& net,
                                         mem::MainMemory& memory,
                                         ProtocolParams params, unsigned numCores,
                                         unsigned numBanks,
                                         core::HtmLockUnitParams sigParams)
    : ctx_(ctx),
      engine_(ctx.engine()),
      net_(net),
      memory_(memory),
      params_(params),
      numCores_(numCores),
      bankMask_(numBanks - 1),
      l1s_(numCores, nullptr),
      llcHits_(ctx.stats().counter("dir.llc.hits")),
      llcMisses_(ctx.stats().counter("dir.llc.misses")),
      // Dirty lines written back into the LLC.
      writebacks_(ctx.stats().counter("dir.writebacks")),
      // LLC signature-induced rejections.
      sigRejects_(ctx.stats().counter("dir.sig_rejects")),
      // Lock-mirror broadcast messages between LLC banks.
      interBankMsgs_(ctx.stats().counter("dir.interbank.msgs")),
      // Requests queued behind a busy line, sampled at enqueue.
      waitqDepth_(ctx.stats().histogram("dir.waitq.depth")) {
  if (numBanks == 0 || (numBanks & (numBanks - 1)) != 0) {
    throw std::invalid_argument(
        "directory bank count must be a power of two, got " +
        std::to_string(numBanks));
  }
  if (numBanks > numCores) {
    throw std::invalid_argument(
        "directory bank count (" + std::to_string(numBanks) +
        ") cannot exceed the core count (" + std::to_string(numCores) +
        "): each bank needs a distinct home node on the NoC");
  }
  banks_.reserve(numBanks);
  bankReqs_.reserve(numBanks);
  for (unsigned b = 0; b < numBanks; ++b) {
    banks_.emplace_back(sigParams);
    bankReqs_.push_back(
        &ctx.stats().counter(stats::statPath("dir.bank", b, "reqs")));
  }
}

void DirectoryController::connectL1(CoreId core, MsgSink* sink) {
  l1s_.at(static_cast<std::size_t>(core)) = sink;
}

void DirectoryController::preloadLlc(LineAddr from, LineAddr to) {
  memory_.warmLlc(from, to);
}

void DirectoryController::sendToL1(CoreId core, Msg msg) {
  MsgSink* sink = l1s_.at(static_cast<std::size_t>(core));
  assert(sink != nullptr);
  post(ctx_, net_, lineNode(msg.line), core, *sink, std::move(msg));
}

void DirectoryController::sendBankToBank(unsigned srcBank, unsigned dstBank,
                                         Msg msg) {
  ++interBankMsgs_;
  post(ctx_, net_, bankCtrlNode(srcBank), bankCtrlNode(dstBank), *this,
       std::move(msg));
}

DirectoryController::DirSnapshot DirectoryController::snapshot(LineAddr line) const {
  DirSnapshot s;
  const Bank& b = bankFor(line);
  if (const DirInfo* d = b.dir.find(line)) {
    s.owner = d->owner;
    s.sharers = d->sharers;
  }
  s.busy = b.pending.contains(line);
  return s;
}

bool DirectoryController::anyOverflow() const {
  for (const Bank& b : banks_) {
    if (b.hl.anyOverflow()) return true;
  }
  return false;
}

std::size_t DirectoryController::busyLines() const {
  std::size_t n = 0;
  for (const Bank& b : banks_) n += b.pending.size();
  return n;
}

std::string DirectoryController::diagnostic() const {
  std::ostringstream oss;
  oss << "directory: " << busyLines() << " busy lines";
  for (unsigned bi = 0; bi < banks_.size(); ++bi) {
    banks_[bi].pending.forEachOrdered([&](LineAddr line, const Pending& p) {
      oss << " [0x" << std::hex << line << std::dec << " " << toString(p.req.type)
          << " from c" << p.req.from << " acksLeft=" << p.acksLeft
          << (p.waitUnblock ? " waitUnblock" : "") << "]";
    });
  }
  if (arbiter_.active()) {
    oss << " HTMLock holder=c" << arbiter_.holder() << " (" << toString(arbiter_.holderMode())
        << ", " << arbiter_.queued() << " TL queued)";
  }
  if (interBankAcksPending() != 0) {
    oss << " interbank acks pending=" << interBankAcksPending();
  }
  return oss.str();
}

void DirectoryController::onMessage(const Msg& msg) {
  switch (msg.type) {
    case MsgType::GetS:
    case MsgType::GetX: {
      Bank& b = bankFor(msg.line);
      if (b.pending.contains(msg.line)) {
        std::deque<Msg>& q = b.waitq[msg.line];
        q.push_back(msg);
        waitqDepth_.record(q.size());
        return;
      }
      startRequest(msg);
      return;
    }
    case MsgType::Unblock: {
      const Pending* p = bankFor(msg.line).pending.find(msg.line);
      // Unblock must match an in-flight transaction.
      if (p == nullptr || !p->waitUnblock) {
        throw std::logic_error("stray Unblock at directory");
      }
      finishPending(msg.line);
      return;
    }
    case MsgType::InvAck: return onInvResponse(msg, /*rejected=*/false);
    case MsgType::InvReject: return onInvResponse(msg, /*rejected=*/true);
    case MsgType::FwdAck:
    case MsgType::FwdAckTxInv:
    case MsgType::FwdReject: return onFwdResponse(msg);
    case MsgType::PutM: return onPutM(msg);
    case MsgType::WbClean: {
      memory_.writeBackLlc(msg.line, msg.data);
      return;
    }
    case MsgType::TxAbortInv: {
      Bank& b = bankFor(msg.line);
      if (b.pending.contains(msg.line)) {
        // A forward for this line is in flight to the aborting owner; its
        // response (FwdAckTxInv) will carry the state fix. Drop.
        return;
      }
      if (DirInfo* d = b.dir.find(msg.line); d != nullptr && d->owner == msg.from) {
        d->owner = kNoCore;
      }
      return;
    }
    case MsgType::SigAdd: return onSigAdd(msg);
    case MsgType::SigClear: return onSigClear(msg);
    case MsgType::HlaReq: return onHlaReq(msg);
    case MsgType::BankLockSet: return onBankLockSet(msg);
    case MsgType::BankLockAck: return onBankLockAck(msg);
    case MsgType::BankLockClear: return onBankLockClear(msg);
    case MsgType::BankClearAck: return onBankClearAck(msg);
    default:
      throw std::logic_error(std::string("directory cannot handle ") + toString(msg.type));
  }
}

void DirectoryController::startRequest(const Msg& msg) {
  sim::traceInstant(ctx_, TraceCat::Directory, "dir_busy", kDirectoryLane,
                    {"line", msg.line},
                    {"from", static_cast<std::uint64_t>(msg.from)});
  Bank& b = bankFor(msg.line);
  ++*bankReqs_[bankOfLine(msg.line)];
  Pending& p = *b.pending.tryEmplace(msg.line).first;
  p.req = PendingReq{msg.type, msg.line, msg.from, msg.req};
  p.acksLeft = 0;
  p.anyReject = false;
  p.rejectHint = AbortCause::MemConflict;
  p.waitUnblock = false;
  // LLC/tag access latency; cold lines additionally pay the memory latency.
  const bool cold = !memory_.inLlc(msg.line);
  const Cycle lat = params_.llcLatency + (cold ? params_.memLatency : 0);
  engine_.schedule(lat, [this, line = msg.line]() { handleRequest(line); });
}

void DirectoryController::handleRequest(LineAddr line) {
  Bank& b = bankFor(line);
  Pending* pp = b.pending.find(line);
  assert(pp != nullptr);
  Pending& p = *pp;
  DirInfo& d = b.dir[line];
  if (memory_.fillLlc(line)) {
    ++llcMisses_;
  } else {
    ++llcHits_;
  }

  // HTMLock mechanism: LLC overflow-signature filter (Fig 5 step 3),
  // answered entirely from this bank's signatures and lock mirror.
  const bool wantX = p.req.type == MsgType::GetX;
  if (b.hl.shouldReject(line, wantX, d.hasCopies(), p.req.from)) {
    ++sigRejects_;
    sim::traceInstant(ctx_, TraceCat::Directory, "sig_reject", kDirectoryLane,
                      {"line", line},
                      {"core", static_cast<std::uint64_t>(p.req.from)});
    b.hl.recordWaiter(line, p.req.from);
    sendReject(p.req, AbortCause::LockConflict);
    finishPending(line);
    return;
  }

  if (wantX) {
    handleGetX(p, d);
  } else {
    handleGetS(p, d);
  }
}

void DirectoryController::handleGetS(Pending& p, DirInfo& d) {
  const LineAddr line = p.req.line;
  const CoreId r = p.req.from;
  if (d.owner == r || !d.hasCopies()) {
    // No other copies (or the owner silently dropped a clean line and is
    // re-requesting): grant exclusive, MESI E-state optimization.
    Msg resp{.type = MsgType::DataE, .line = line, .data = memory_.lineData(line), .hasData = true};
    d.owner = r;
    d.sharers.clear();
    p.waitUnblock = true;
    sendToL1(r, std::move(resp));
    return;
  }
  if (d.owner != kNoCore) {
    Msg fwd{.type = MsgType::FwdGetS, .line = line, .req = p.req.req};
    p.acksLeft = 1;
    sendToL1(d.owner, std::move(fwd));
    return;
  }
  // Shared: serve from LLC.
  Msg resp{.type = MsgType::DataS, .line = line, .data = memory_.lineData(line), .hasData = true};
  d.sharers.insert(r);
  p.waitUnblock = true;
  sendToL1(r, std::move(resp));
}

void DirectoryController::handleGetX(Pending& p, DirInfo& d) {
  const LineAddr line = p.req.line;
  const CoreId r = p.req.from;
  if (d.owner == r) {
    // Owner silently dropped its clean copy and wants it back exclusively.
    Msg resp{.type = MsgType::DataE, .line = line, .data = memory_.lineData(line), .hasData = true};
    p.waitUnblock = true;
    sendToL1(r, std::move(resp));
    return;
  }
  if (d.owner != kNoCore) {
    Msg fwd{.type = MsgType::FwdGetX, .line = line, .req = p.req.req};
    p.acksLeft = 1;
    sendToL1(d.owner, std::move(fwd));
    return;
  }
  // Count sharers other than the requester.
  unsigned others = 0;
  for (CoreId s : d.sharers) {
    if (s != r) ++others;
  }
  if (others == 0) {
    // Even when the requester is a listed sharer, send data: it may have
    // silently dropped its clean copy, and the directory cannot tell.
    Msg resp{.type = MsgType::DataE, .line = line, .data = memory_.lineData(line), .hasData = true};
    d.sharers.clear();
    d.owner = r;
    p.waitUnblock = true;
    sendToL1(r, std::move(resp));
    return;
  }
  if (bug_ == InjectedBug::SwmrSkipInvalidation) {
    // Injected defect: grant exclusive data while the sharers keep their
    // copies and stay listed — the requester and every sharer now hold the
    // line simultaneously, violating SWMR.
    Msg resp{.type = MsgType::DataE, .line = line, .data = memory_.lineData(line), .hasData = true};
    d.owner = r;
    p.waitUnblock = true;
    sendToL1(r, std::move(resp));
    return;
  }
  p.acksLeft = others;
  for (CoreId s : d.sharers) {
    if (s == r) continue;
    Msg inv{.type = MsgType::Inv, .line = line, .req = p.req.req};
    sendToL1(s, std::move(inv));
  }
}

void DirectoryController::hashState(sim::StateHasher& h) const {
  h.section(0x30);  // LLC data, per bank: each bank's resident lines, ascending
  for (unsigned bi = 0; bi < banks_.size(); ++bi) {
    memory_.forEachLlcLine([&](LineAddr line, const mem::LineData& data) {
      if (bankOfLine(line) != bi) return;
      h.put(line);
      for (std::uint64_t word : data) h.put(word);
    });
  }

  h.section(0x31);  // directory entries, per bank
  for (const Bank& b : banks_) {
    b.dir.forEachOrdered([&](LineAddr line, const DirInfo& d) {
      h.put(line);
      h.put(static_cast<std::uint64_t>(d.owner));
      for (std::uint64_t w : d.sharers.rawWords()) h.put(w);
    });
  }

  h.section(0x32);  // pending per-line transactions, per bank
  for (const Bank& b : banks_) {
    b.pending.forEachOrdered([&](LineAddr line, const Pending& p) {
      h.put(line);
      h.put(static_cast<std::uint64_t>(p.req.type));
      h.put(static_cast<std::uint64_t>(p.req.from));
      h.put(static_cast<std::uint64_t>(p.req.req.core));
      h.put((p.req.req.isTx ? 1u : 0u) | (p.req.req.lockMode ? 2u : 0u) |
            (p.req.req.wantsExclusive ? 4u : 0u));
      h.put(p.req.req.priority);
      h.put(p.acksLeft);
      h.put((p.anyReject ? 1u : 0u) | (p.waitUnblock ? 2u : 0u));
      h.put(static_cast<std::uint64_t>(p.rejectHint));
    });
  }

  h.section(0x33);  // queued requests, FIFO order per line, per bank
  for (const Bank& b : banks_) {
    b.waitq.forEachOrdered([&](LineAddr line, const std::deque<Msg>& q) {
      h.put(line);
      for (const Msg& m : q) h.put(msgFingerprint(m));
    });
  }

  h.section(0x34);  // HTMLock arbiter + inter-bank broadcast bookkeeping
  h.put(static_cast<std::uint64_t>(arbiter_.holder()));
  h.put(static_cast<std::uint64_t>(arbiter_.holderMode()));
  for (CoreId c : arbiter_.tlQueue()) h.put(static_cast<std::uint64_t>(c));
  h.put(lockAcksLeft_);
  h.put(static_cast<std::uint64_t>(lockGrantee_));
  h.put(static_cast<std::uint64_t>(lockGranteeMode_));
  h.put(clearAcksLeft_);
  h.put(static_cast<std::uint64_t>(clearingCore_));

  h.section(0x35);  // per-bank lock mirrors, overflow signatures + waiters
  for (const Bank& b : banks_) {
    h.put(static_cast<std::uint64_t>(b.hl.lockHolder()));
    h.put(static_cast<std::uint64_t>(b.hl.lockMode()));
    for (std::uint64_t w : b.hl.readSig().rawWords()) h.put(w);
    for (std::uint64_t w : b.hl.writeSig().rawWords()) h.put(w);
    b.hl.waiters().forEach([&](LineAddr line, CoreId core) {
      h.put(line);
      h.put(static_cast<std::uint64_t>(core));
    });
  }
}

void DirectoryController::sendReject(const PendingReq& req, AbortCause hint) {
  Msg resp{.type = MsgType::RejectResp, .line = req.line, .rejectHint = hint};
  sendToL1(req.from, std::move(resp));
}

void DirectoryController::onInvResponse(const Msg& msg, bool rejected) {
  Bank& b = bankFor(msg.line);
  Pending* pp = b.pending.find(msg.line);
  assert(pp != nullptr && pp->acksLeft > 0);
  Pending& p = *pp;
  DirInfo& d = b.dir[msg.line];
  if (rejected) {
    p.anyReject = true;
    if (msg.rejectHint == AbortCause::LockConflict) p.rejectHint = AbortCause::LockConflict;
    // Rejecting sharer keeps its copy: stays in the sharer list.
  } else {
    d.sharers.erase(msg.from);
  }
  if (--p.acksLeft > 0) return;

  const CoreId r = p.req.from;
  if (p.anyReject) {
    sendReject(p.req, p.rejectHint);
    finishPending(msg.line);
    return;
  }
  Msg resp{.type = MsgType::DataE, .line = msg.line, .data = memory_.lineData(msg.line),
           .hasData = true};
  d.sharers.clear();
  d.owner = r;
  p.waitUnblock = true;
  sendToL1(r, std::move(resp));
}

void DirectoryController::onFwdResponse(const Msg& msg) {
  Bank& b = bankFor(msg.line);
  Pending* pp = b.pending.find(msg.line);
  assert(pp != nullptr && pp->acksLeft == 1);
  Pending& p = *pp;
  DirInfo& d = b.dir[msg.line];
  const CoreId r = p.req.from;
  const bool isGetX = p.req.type == MsgType::GetX;

  switch (msg.type) {
    case MsgType::FwdReject:
      sendReject(p.req, msg.rejectHint);
      finishPending(msg.line);
      return;
    case MsgType::FwdAckTxInv: {
      // Fig 3: the owner invalidated itself (aborted speculative line or a
      // silently-dropped clean copy); the LLC copy is current, so the
      // requester receives exclusive data either way.
      d.owner = r;
      d.sharers.clear();
      Msg resp{.type = MsgType::DataE, .line = msg.line, .data = memory_.lineData(msg.line), .hasData = true};
      p.acksLeft = 0;
      p.waitUnblock = true;
      sendToL1(r, std::move(resp));
      return;
    }
    case MsgType::FwdAck: {
      if (msg.hasData) {
        memory_.writeBackLlc(msg.line, msg.data);
        ++writebacks_;
      }
      Msg resp;
      if (isGetX) {
        d.sharers.clear();
        d.owner = r;
        resp = Msg{.type = MsgType::DataE, .line = msg.line, .data = memory_.lineData(msg.line), .hasData = true};
      } else {
        const CoreId prevOwner = d.owner;
        d.owner = kNoCore;
        d.sharers.insert(r);
        if (msg.keptCopy && prevOwner != kNoCore) d.sharers.insert(prevOwner);
        resp = Msg{.type = MsgType::DataS, .line = msg.line, .data = memory_.lineData(msg.line), .hasData = true};
      }
      p.acksLeft = 0;
      p.waitUnblock = true;
      sendToL1(r, std::move(resp));
      return;
    }
    default:
      throw std::logic_error("unexpected forward response");
  }
}

void DirectoryController::onPutM(const Msg& msg) {
  Bank& b = bankFor(msg.line);
  if (DirInfo* d = b.dir.find(msg.line); d != nullptr && d->owner == msg.from) {
    memory_.writeBackLlc(msg.line, msg.data);
    d->owner = kNoCore;
    ++writebacks_;
  }
  // Stale PutM (ownership already moved via a forward served from the
  // writeback buffer): the data was already delivered; just ack.
  Msg ack{.type = MsgType::PutAck, .line = msg.line};
  sendToL1(msg.from, std::move(ack));
}

void DirectoryController::onSigAdd(const Msg& msg) {
  Bank& b = bankFor(msg.line);
  b.hl.noteOverflow(msg.line, msg.sigIsWrite);
  if (DirInfo* d = b.dir.find(msg.line)) {
    if (d->owner == msg.from) d->owner = kNoCore;
    d->sharers.erase(msg.from);
  }
  if (msg.hasData) {
    memory_.writeBackLlc(msg.line, msg.data);
    ++writebacks_;
    Msg ack{.type = MsgType::PutAck, .line = msg.line};
    sendToL1(msg.from, std::move(ack));
  }
}

void DirectoryController::onSigClear(const Msg& msg) {
  // hlend arrives at the home bank (SigClear carries line 0). The home bank
  // clears locally right away; remote banks clear when BankLockClear reaches
  // them, and the arbiter slot is only released once every bank acked — a
  // successor's spills must never race a stale clear.
  assert(lockAcksLeft_ == 0 && clearAcksLeft_ == 0 &&
         "overlapping HTMLock hand-offs");
  clearBankAndWake(0);
  if (banks_.size() == 1) {
    finishRelease(msg.from);
    return;
  }
  clearingCore_ = msg.from;
  clearAcksLeft_ = static_cast<unsigned>(banks_.size()) - 1;
  for (unsigned b = 1; b < banks_.size(); ++b) {
    Msg clear{.type = MsgType::BankLockClear, .from = msg.from, .bank = b};
    sendBankToBank(0, b, std::move(clear));
  }
}

void DirectoryController::onHlaReq(const Msg& msg) {
  switch (arbiter_.request(msg.from, msg.hlaMode)) {
    case core::SwitchArbiter::Verdict::Grant:
      beginLockBroadcast(msg.from, msg.hlaMode);
      return;
    case core::SwitchArbiter::Verdict::Deny: {
      Msg deny{.type = MsgType::HlaDeny, .line = 0};
      sendToL1(msg.from, std::move(deny));
      return;
    }
    case core::SwitchArbiter::Verdict::Queued:
      return;  // granted later, on SigClear of the current holder
  }
}

void DirectoryController::beginLockBroadcast(CoreId core, TxMode mode) {
  banks_[0].hl.setLock(core, mode);  // home mirror updates synchronously
  if (banks_.size() == 1) {
    Msg grant{.type = MsgType::HlaGrant, .line = 0};
    sendToL1(core, std::move(grant));
    return;
  }
  lockGrantee_ = core;
  lockGranteeMode_ = mode;
  lockAcksLeft_ = static_cast<unsigned>(banks_.size()) - 1;
  for (unsigned b = 1; b < banks_.size(); ++b) {
    Msg set{.type = MsgType::BankLockSet, .from = core, .bank = b, .hlaMode = mode};
    sendBankToBank(0, b, std::move(set));
  }
}

void DirectoryController::finishRelease(CoreId core) {
  banks_[0].hl.clearLock();
  if (auto next = arbiter_.release(core)) {
    beginLockBroadcast(*next, TxMode::TL);
  }
}

void DirectoryController::clearBankAndWake(unsigned bank) {
  for (const auto& w : banks_[bank].hl.clearAndDrain()) {
    Msg wake{.type = MsgType::Wakeup, .line = w.line};
    sendToL1(w.core, std::move(wake));
  }
  if (bank != 0) banks_[bank].hl.clearLock();
  // Bank 0's mirror is cleared in finishRelease: the home bank keeps
  // rejecting on the holder's behalf until the slot actually changes hands.
}

void DirectoryController::onBankLockSet(const Msg& msg) {
  banks_.at(msg.bank).hl.setLock(msg.from, msg.hlaMode);
  Msg ack{.type = MsgType::BankLockAck, .from = msg.from, .bank = msg.bank};
  sendBankToBank(msg.bank, 0, std::move(ack));
}

void DirectoryController::onBankLockAck(const Msg& msg) {
  (void)msg;
  assert(lockAcksLeft_ > 0);
  if (--lockAcksLeft_ > 0) return;
  Msg grant{.type = MsgType::HlaGrant, .line = 0};
  const CoreId grantee = lockGrantee_;
  lockGrantee_ = kNoCore;
  lockGranteeMode_ = TxMode::None;
  sendToL1(grantee, std::move(grant));
}

void DirectoryController::onBankLockClear(const Msg& msg) {
  clearBankAndWake(msg.bank);
  Msg ack{.type = MsgType::BankClearAck, .from = msg.from, .bank = msg.bank};
  sendBankToBank(msg.bank, 0, std::move(ack));
}

void DirectoryController::onBankClearAck(const Msg& msg) {
  (void)msg;
  assert(clearAcksLeft_ > 0);
  if (--clearAcksLeft_ > 0) return;
  const CoreId releasing = clearingCore_;
  clearingCore_ = kNoCore;
  finishRelease(releasing);
}

void DirectoryController::finishPending(LineAddr line) {
  sim::traceInstant(ctx_, TraceCat::Directory, "dir_done", kDirectoryLane,
                    {"line", line});
  Bank& b = bankFor(line);
  b.pending.erase(line);
  std::deque<Msg>* q = b.waitq.find(line);
  if (q == nullptr) return;  // common case: nobody queued behind this line
  if (q->empty()) {
    b.waitq.erase(line);
    return;
  }
  Msg next = q->front();
  q->pop_front();
  if (q->empty()) b.waitq.erase(line);
  startRequest(next);
}

}  // namespace lktm::coh
