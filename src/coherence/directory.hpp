// Shared-LLC directory controller of the MESI-Two-Level-HTM protocol.
//
// The LLC is inclusive and holds the directory (owner / sharer list) per
// line. Requests are serialized per line: while a transaction is in flight
// the line is "busy" and later requests queue in FIFO order. All responses
// route through the directory (the paper's Fig 2 topology where L1 caches
// communicate through their subordinate), which centralizes the recovery
// mechanism's reject aggregation and the HTMLock signature checks.
//
// Banking: the logical directory is sharded into numBanks address-interleaved
// banks (bank = line mod numBanks, numBanks a power of two). Each bank owns
// its own directory table, pending queue, wait queues, and HTMLock signature
// pair. The SwitchArbiter slot stays globally unique and lives at the *home
// bank* (bank 0, where HlaReq/SigClear arrive), but its decisions now travel
// to the other banks as explicit NoC messages: a grant broadcasts
// BankLockSet and is only delivered to the requester once every bank has
// acked its lock mirror, and hlend broadcasts BankLockClear — each bank
// clears its signatures, drains its own waiters, and acks — before the slot
// is released to the next queued TL core. With numBanks == 1 every broadcast
// degenerates to a synchronous local update and the controller is
// message-for-message identical to the pre-banking monolith.
//
// Capacity note (documented in DESIGN.md): the LLC is unbounded and never
// evicts; LLC capacity effects are second-order for the paper's experiments
// (its sensitivity axis is the L1), while cold misses do pay the memory
// latency. Because nothing is evicted and the directory never writes DRAM,
// a resident line's memory copy is never read again, so the LLC keeps no
// data of its own: MainMemory holds each line once, with an in-LLC bit, and
// the warmed footprint is one line range there.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/htmlock_unit.hpp"
#include "core/switch_arbiter.hpp"
#include "coherence/messages.hpp"
#include "coherence/params.hpp"
#include "mem/main_memory.hpp"
#include "noc/network.hpp"
#include "sim/context.hpp"
#include "sim/core_mask.hpp"
#include "sim/engine.hpp"
#include "sim/flat_table.hpp"
#include "stats/registry.hpp"

namespace lktm::coh {

class DirectoryController final : public MsgSink {
 public:
  /// Throws std::invalid_argument when numBanks is 0, not a power of two, or
  /// exceeds numCores (each bank needs a distinct home node on the NoC).
  DirectoryController(sim::SimContext& ctx, noc::Network& net,
                      mem::MainMemory& memory, ProtocolParams params,
                      unsigned numCores, unsigned numBanks = 1,
                      core::HtmLockUnitParams sigParams = {});

  void connectL1(CoreId core, MsgSink* sink);

  /// Warm the inclusive LLC with the lines [from, to) before simulation, so
  /// short benchmark runs measure steady-state behaviour instead of cold-miss
  /// serialization (documented substitution in DESIGN.md). O(1) on an LLC
  /// with nothing resident (MainMemory::warmLlc); counts one mem.line_reads
  /// per newly resident line.
  void preloadLlc(LineAddr from, LineAddr to);

  void onMessage(const Msg& msg) override;

  // --- introspection (tests, checker, harness) ---
  struct DirSnapshot {
    CoreId owner = kNoCore;
    sim::CoreMask sharers;  ///< set-compatible: count()/size()/iteration
    bool busy = false;
  };
  DirSnapshot snapshot(LineAddr line) const;

  bool llcHas(LineAddr line) const { return memory_.inLlc(line); }
  /// The line's data at the LLC: the one copy MainMemory keeps.
  mem::LineData llcData(LineAddr line) const { return memory_.lineData(line); }

  unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }
  unsigned bankOfLine(LineAddr line) const {
    return static_cast<unsigned>(line) & bankMask_;
  }

  const core::SwitchArbiter& arbiter() const { return arbiter_; }
  /// Per-bank signature/waiter state; the no-argument overload is the home
  /// bank (compatible with single-bank callers).
  const core::HtmLockUnit& htmlockUnit(unsigned bank = 0) const {
    return banks_.at(bank).hl;
  }
  /// Any bank holding overflow signature bits (lock evidence for invariants).
  bool anyOverflow() const;
  /// Outstanding inter-bank lock-mirror broadcast acks (0 when the TL/STL
  /// protocol is quiescent; always 0 with a single bank).
  unsigned interBankAcksPending() const { return lockAcksLeft_ + clearAcksLeft_; }

  std::uint64_t llcHits() const { return llcHits_.value(); }
  std::uint64_t llcMisses() const { return llcMisses_.value(); }
  std::uint64_t writebacks() const { return writebacks_.value(); }
  std::uint64_t sigRejects() const { return sigRejects_.value(); }

  /// Pending per-line transactions (0 when the protocol is quiescent).
  std::size_t busyLines() const;

  /// Requester descriptor of the in-flight transaction on `line`, or nullptr
  /// when the line is not busy. The model checker's reject-priority invariant
  /// reads the requester's carried priority snapshot from here at the moment
  /// a responder sends a reject.
  const core::ReqSide* pendingReq(LineAddr line) const {
    const Pending* p = bankFor(line).pending.find(line);
    return p == nullptr ? nullptr : &p->req.req;
  }

  std::string diagnostic() const;

  // --- model-checker exports ---
  /// Deliberate protocol defects, reachable only through lktm_check
  /// --inject-bug: they validate that the checker actually detects
  /// violations and can reproduce them from a dumped counterexample.
  enum class InjectedBug : std::uint8_t {
    None,
    /// handleGetX grants exclusive data without invalidating the remaining
    /// sharers — a textbook SWMR violation.
    SwmrSkipInvalidation,
  };
  void injectBug(InjectedBug bug) { bug_ = bug; }

  /// Fold the directory's behaviour-relevant state — per-bank LLC lines, dir
  /// entries, pending transactions, wait queues, HTMLock arbiter + mirrors +
  /// signatures + waiter tables, and in-flight broadcast bookkeeping — into a
  /// model-checker fingerprint. Stats are excluded.
  void hashState(sim::StateHasher& h) const;

 private:
  struct DirInfo {
    CoreId owner = kNoCore;
    sim::CoreMask sharers;

    bool hasCopies() const { return owner != kNoCore || !sharers.empty(); }
  };

  /// The slice of a GetS/GetX message the directory needs while the line is
  /// busy. Requests carry no data payload, so storing the full Msg (with its
  /// inline LineData) would only fatten the pending_ slots the open-addressed
  /// erase has to shift around.
  struct PendingReq {
    MsgType type{};
    LineAddr line = 0;
    CoreId from = kNoCore;
    core::ReqSide req{};
  };

  struct Pending {
    PendingReq req;
    unsigned acksLeft = 0;
    bool anyReject = false;
    AbortCause rejectHint = AbortCause::MemConflict;
    bool waitUnblock = false;
  };

  /// One address-interleaved directory shard: independent directory tables
  /// plus its own HTMLock signature pair, waiter table and lock mirror. Line
  /// data and LLC residency are not per bank: MainMemory holds both.
  struct Bank {
    explicit Bank(core::HtmLockUnitParams sigParams) : hl(sigParams) {}

    sim::FlatLineTable<DirInfo> dir;
    sim::FlatLineTable<Pending> pending;        // busy lines
    sim::FlatLineTable<std::deque<Msg>> waitq;  // queued requests per line
    core::HtmLockUnit hl;
  };

  sim::SimContext& ctx_;
  sim::Engine& engine_;
  noc::Network& net_;
  mem::MainMemory& memory_;
  ProtocolParams params_;
  unsigned numCores_;
  unsigned bankMask_;

  std::vector<MsgSink*> l1s_;
  std::vector<Bank> banks_;

  core::SwitchArbiter arbiter_;  // global slot, owned by the home bank

  // Home-bank broadcast bookkeeping. A grant is withheld until every bank
  // mirrors the new holder; a release is withheld until every bank has wiped
  // its signatures (otherwise a freshly granted holder could spill into a
  // bank that a late BankLockClear then erases).
  unsigned lockAcksLeft_ = 0;
  CoreId lockGrantee_ = kNoCore;
  TxMode lockGranteeMode_ = TxMode::None;
  unsigned clearAcksLeft_ = 0;
  CoreId clearingCore_ = kNoCore;

  stats::Counter& llcHits_;
  stats::Counter& llcMisses_;
  stats::Counter& writebacks_;
  stats::Counter& sigRejects_;
  stats::Counter& interBankMsgs_;
  stats::Histogram& waitqDepth_;
  std::vector<stats::Counter*> bankReqs_;
  InjectedBug bug_ = InjectedBug::None;

  // --- helpers ---
  Bank& bankFor(LineAddr line) { return banks_[bankOfLine(line)]; }
  const Bank& bankFor(LineAddr line) const { return banks_[bankOfLine(line)]; }

  /// NoC node serving `line` (network-level striping over all numCores LLC
  /// slices; unchanged by logical banking so single-bank timing is stable).
  unsigned nodeSliceOf(LineAddr line) const {
    return static_cast<unsigned>(line % numCores_);
  }
  noc::NodeId lineNode(LineAddr line) const {
    return static_cast<noc::NodeId>(numCores_ + nodeSliceOf(line));
  }
  /// NoC node carrying bank b's control traffic (bank home tile).
  noc::NodeId bankCtrlNode(unsigned bank) const {
    return static_cast<noc::NodeId>(numCores_ + (bank % numCores_));
  }

  void sendToL1(CoreId core, Msg msg);
  void sendBankToBank(unsigned srcBank, unsigned dstBank, Msg msg);

  void startRequest(const Msg& msg);
  void handleRequest(LineAddr line);
  void finishPending(LineAddr line);

  void handleGetS(Pending& p, DirInfo& d);
  void handleGetX(Pending& p, DirInfo& d);
  void sendReject(const PendingReq& req, AbortCause hint);

  void onInvResponse(const Msg& msg, bool rejected);
  void onFwdResponse(const Msg& msg);
  void onPutM(const Msg& msg);
  void onSigAdd(const Msg& msg);
  void onSigClear(const Msg& msg);
  void onHlaReq(const Msg& msg);

  // inter-bank TL/STL protocol
  void beginLockBroadcast(CoreId core, TxMode mode);
  void finishRelease(CoreId core);
  void clearBankAndWake(unsigned bank);
  void onBankLockSet(const Msg& msg);
  void onBankLockAck(const Msg& msg);
  void onBankLockClear(const Msg& msg);
  void onBankClearAck(const Msg& msg);
};

}  // namespace lktm::coh
