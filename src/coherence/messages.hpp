// Coherence message vocabulary of our MESI-Two-Level-HTM protocol.
//
// All request/response traffic between private L1s and the shared
// directory+LLC flows through these messages. The recovery mechanism's
// REJECT/NACK extensions (paper Figs 2-4) appear as InvReject / FwdReject /
// RejectResp / Wakeup; the HTMLock and switchingMode extensions as
// SigAdd / SigClear / HlaReq / HlaGrant / HlaDeny.
#pragma once

#include <cstdint>

#include "core/conflict_manager.hpp"
#include "mem/cache_array.hpp"
#include "noc/network.hpp"
#include "sim/context.hpp"
#include "sim/types.hpp"

namespace lktm::coh {

enum class MsgType : std::uint8_t {
  // --- L1 -> directory requests (serialized per line) ---
  GetS,        ///< read miss
  GetX,        ///< write miss or S->M upgrade
  PutM,        ///< dirty eviction (carries data)
  WbClean,     ///< pre-image flush before the first speculative store to a
               ///< locally-dirty line; ownership retained (Fig 3 support)
  TxAbortInv,  ///< aborting owner invalidated a speculatively-written line
  SigAdd,      ///< HTMLock: lock-tx line spilled from L1; add to OfRd/OfWrSig
  SigClear,    ///< HTMLock: hlend; clear signatures, release the HTMLock slot
  HlaReq,      ///< apply for HTMLock-mode authorization (TL or STL)
  Unblock,     ///< requester confirms receipt; directory leaves busy state

  // --- directory -> L1 ---
  DataE,       ///< data grant, exclusive
  DataS,       ///< data grant, shared
  RejectResp,  ///< request revoked (recovery mechanism / LLC signatures)
  PutAck,      ///< eviction acknowledged; writeback buffer entry may retire
  Inv,         ///< invalidate your S copy (carries requester info)
  FwdGetS,     ///< you own this line; a reader wants it
  FwdGetX,     ///< you own this line; a writer wants it
  HlaGrant,
  HlaDeny,

  // --- L1 -> directory responses ---
  InvAck,      ///< complied with Inv
  InvReject,   ///< recovery: refused Inv, kept the S copy
  FwdAck,      ///< complied with Fwd (keptCopy says S-downgrade vs invalidate)
  FwdAckTxInv, ///< complied by self-invalidating an aborted speculative line;
               ///< serve the requester exclusively from the LLC (Fig 3 NACK)
  FwdReject,   ///< recovery: refused Fwd, state unchanged

  // --- L1 -> L1 ---
  Wakeup,      ///< retry your previously rejected request for this line

  // --- directory bank -> directory bank (banked LLC only) ---
  BankLockSet,   ///< home bank installs the HTMLock holder mirror on a bank
  BankLockAck,   ///< bank confirms the mirror; grant waits for all acks
  BankLockClear, ///< hlend: clear your signatures + mirror, drain waiters
  BankClearAck,  ///< bank finished clearing; release waits for all acks
};

const char* toString(MsgType t);

constexpr bool carriesData(MsgType t) {
  return t == MsgType::DataE || t == MsgType::DataS;
}

struct Msg {
  MsgType type{};
  LineAddr line = 0;
  CoreId from = kNoCore;     ///< sending core (or kNoCore when from directory)
  core::ReqSide req{};       ///< requester descriptor, carried end-to-end
  mem::LineData data{};
  bool hasData = false;
  bool keptCopy = false;     ///< FwdAck: responder retains an S copy
  bool sigIsWrite = false;   ///< SigAdd: write-set vs read-set overflow
  unsigned bank = 0;         ///< Bank*: target bank (Set/Clear) or acking bank
  TxMode hlaMode = TxMode::None;       ///< HlaReq: TL or STL; BankLockSet: mode
  AbortCause rejectHint = AbortCause::None;  ///< RejectResp: who beat us
};

/// Anything that can receive coherence messages off the network.
class MsgSink {
 public:
  virtual ~MsgSink() = default;
  virtual void onMessage(const Msg& msg) = 0;
};

/// Verification tap: installed on the SimContext (setVerifyTap) by the model
/// checker, it observes every post()ed message at send time and again just
/// before delivery, giving the verifier an exact registry of in-flight
/// messages without the protocol components knowing they are being watched.
class MsgTap {
 public:
  virtual ~MsgTap() = default;
  virtual void onSend(const Msg& msg, noc::NodeId src, noc::NodeId dst) = 0;
  virtual void onDeliver(const Msg& msg, noc::NodeId src, noc::NodeId dst) = 0;
};

/// Canonical 64-bit fingerprint of a message's behaviour-relevant content
/// (type, line, sender, requester descriptor, payload, flags). Used by the
/// model checker to fold queued and in-flight messages into state
/// fingerprints; intentionally excludes anything tied to absolute time.
std::uint64_t msgFingerprint(const Msg& msg);

/// Send `msg` to `sink` across `net` without copying the payload through the
/// event queue: the Msg moves into the context's message pool and the
/// in-flight delivery closure captures only {sink, msg*, pool*}, which stays
/// inside sim::Action's inline buffer. Flit count derives from hasData.
void post(sim::SimContext& ctx, noc::Network& net, noc::NodeId src,
          noc::NodeId dst, MsgSink& sink, Msg&& msg);

}  // namespace lktm::coh
