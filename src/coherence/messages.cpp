#include "coherence/messages.hpp"

#include <utility>

#include "sim/state_hash.hpp"

namespace lktm::coh {

void post(sim::SimContext& ctx, noc::Network& net, noc::NodeId src,
          noc::NodeId dst, MsgSink& sink, Msg&& msg) {
  const unsigned flits = msg.hasData ? noc::kDataFlits : noc::kControlFlits;
  sim::Pool<Msg>& pool = ctx.pool<Msg>();
  auto* tap = static_cast<MsgTap*>(ctx.verifyTap());
  if (tap != nullptr) tap->onSend(msg, src, dst);
  Msg* m = pool.acquire(std::move(msg));
  if (tap == nullptr) {
    net.send(src, dst, flits, [s = &sink, m, p = &pool] {
      s->onMessage(*m);
      p->recycle(m);
    });
    return;
  }
  net.send(src, dst, flits, [s = &sink, m, p = &pool, tap, src, dst] {
    tap->onDeliver(*m, src, dst);
    s->onMessage(*m);
    p->recycle(m);
  });
}

std::uint64_t msgFingerprint(const Msg& msg) {
  sim::StateHasher h;
  h.put(static_cast<std::uint64_t>(msg.type));
  h.put(msg.line);
  h.put(static_cast<std::uint64_t>(msg.from));
  h.put(static_cast<std::uint64_t>(msg.req.core));
  h.put((msg.req.isTx ? 1u : 0u) | (msg.req.lockMode ? 2u : 0u) |
        (msg.req.wantsExclusive ? 4u : 0u));
  h.put(msg.req.priority);
  h.putBool(msg.hasData);
  if (msg.hasData) {
    for (std::uint64_t word : msg.data) h.put(word);
  }
  h.put((msg.keptCopy ? 1u : 0u) | (msg.sigIsWrite ? 2u : 0u));
  h.put(msg.bank);
  h.put(static_cast<std::uint64_t>(msg.hlaMode));
  h.put(static_cast<std::uint64_t>(msg.rejectHint));
  return h.digest();
}

const char* toString(MsgType t) {
  switch (t) {
    case MsgType::GetS: return "GetS";
    case MsgType::GetX: return "GetX";
    case MsgType::PutM: return "PutM";
    case MsgType::WbClean: return "WbClean";
    case MsgType::TxAbortInv: return "TxAbortInv";
    case MsgType::SigAdd: return "SigAdd";
    case MsgType::SigClear: return "SigClear";
    case MsgType::HlaReq: return "HlaReq";
    case MsgType::Unblock: return "Unblock";
    case MsgType::DataE: return "DataE";
    case MsgType::DataS: return "DataS";
    case MsgType::RejectResp: return "RejectResp";
    case MsgType::PutAck: return "PutAck";
    case MsgType::Inv: return "Inv";
    case MsgType::FwdGetS: return "FwdGetS";
    case MsgType::FwdGetX: return "FwdGetX";
    case MsgType::HlaGrant: return "HlaGrant";
    case MsgType::HlaDeny: return "HlaDeny";
    case MsgType::InvAck: return "InvAck";
    case MsgType::InvReject: return "InvReject";
    case MsgType::FwdAck: return "FwdAck";
    case MsgType::FwdAckTxInv: return "FwdAckTxInv";
    case MsgType::FwdReject: return "FwdReject";
    case MsgType::Wakeup: return "Wakeup";
    case MsgType::BankLockSet: return "BankLockSet";
    case MsgType::BankLockAck: return "BankLockAck";
    case MsgType::BankLockClear: return "BankLockClear";
    case MsgType::BankClearAck: return "BankClearAck";
  }
  return "?";
}

}  // namespace lktm::coh
