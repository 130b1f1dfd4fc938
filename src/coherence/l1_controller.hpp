// Private L1 cache controller with best-effort HTM support and the three
// LockillerTM mechanisms:
//  * read/write-set tracking via per-line tx bits; requester-wins or
//    recovery-mechanism conflict resolution on external Inv/Fwd requests
//    (Fig 4's enhanced request-handling flow);
//  * held/rejected requests parked in the MSHR with self-abort, fixed-pause
//    retry, or wait-for-wakeup resumption (Fig 2 step 7/8);
//  * HTMLock (TL/STL) lock-transaction mode: tx bits still recorded, local
//    overflow filters mirror the LLC signatures, evictions of transactional
//    lines spill into the LLC signatures instead of aborting;
//  * switchingMode: on capacity overflow an HTM transaction blocks external
//    requests (applyingHLA, Fig 6), asks the LLC for STL admission and either
//    continues irrevocably or aborts as plain best-effort HTM would.
#pragma once

#include <deque>
#include <vector>

#include "core/conflict_manager.hpp"
#include "core/wakeup_table.hpp"
#include "coherence/messages.hpp"
#include "coherence/params.hpp"
#include "mem/cache_array.hpp"
#include "mem/mshr.hpp"
#include "noc/network.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/flat_table.hpp"
#include "sim/small_fn.hpp"
#include "stats/tx_stats.hpp"

namespace lktm::coh {

class L1Controller final : public MsgSink {
 public:
  /// CPU-port completion callables. Value completions get a wider inline
  /// buffer because store() adapts a whole void() action into one, and that
  /// wrapper must still avoid the heap on the hot path.
  using DoneFn = sim::Action;
  using DoneValFn = sim::SmallFn<void(std::uint64_t), 64>;
  using DoneBoolFn = sim::SmallFn<void(bool)>;

  /// What the L1 asks of the CPU driving it. Implemented by cpu::Cpu (and by
  /// the test and model-checker drivers); an L1 with no port installed sees
  /// priority 0 and ignores aborts and STL switches.
  class CpuPort {
   public:
    /// Current priority value per the configured PriorityKind.
    virtual std::uint64_t priorityValue() const = 0;
    /// The local transaction was killed (conflict loss, overflow, fault...).
    virtual void onAbort(AbortCause cause) = 0;
    /// switchingMode succeeded; the CPU is now in STL mode.
    virtual void onSwitchedToStl() = 0;
    /// A message arrived while the CPU was parked (parkCpu): put the CPU's
    /// pending event back before the L1 handles the message.
    virtual void wake() {}

   protected:
    ~CpuPort() = default;
  };

  L1Controller(sim::SimContext& ctx, noc::Network& net, CoreId id,
               mem::CacheGeometry geometry, ProtocolParams params,
               core::TmPolicy policy, unsigned numCores);

  void connectDirectory(MsgSink* dir) { dir_ = dir; }
  /// Peer L1s, indexed by core id, for direct wakeup messages.
  void connectPeers(std::vector<MsgSink*> peers) { peers_ = std::move(peers); }
  /// Install the CPU driving this L1. Not owned; it must outlive the L1's
  /// last event.
  void setCpuPort(CpuPort& port) { port_ = &port; }
  /// Address of the fallback-lock word, for the `mutex` abort classification.
  void setLockLine(LineAddr line) { lockLine_ = line; }

  // ---- CPU port: one outstanding operation at a time ----
  void load(Addr addr, DoneValFn done);
  void store(Addr addr, std::uint64_t value, DoneFn done);
  /// Atomic compare-and-swap; completes with the *old* word value.
  void cas(Addr addr, std::uint64_t expect, std::uint64_t desired,
           DoneValFn done);

  // ---- HTM port ----
  void txBegin();
  void txCommit(DoneFn done);
  /// Abort the running HTM transaction (explicit xabort / fault / internal).
  void txAbort(AbortCause cause);
  /// Enter TL mode (caller holds the software fallback lock). Completion
  /// waits for the LLC's HTMLock authorization.
  void hlBegin(DoneFn done);
  void hlEnd(DoneFn done);
  /// switchingMode entry that is not driven by an overflowing memory request
  /// (e.g. the switch-on-fault extension): apply for STL; `done(granted)`.
  /// On denial the caller decides (typically txAbort(Fault)).
  void trySwitchToLockMode(DoneBoolFn done);

  TxMode mode() const { return mode_; }
  bool busy() const { return op_.active; }

  // ---- spin parking (cpu::Cpu) ----
  /// True when a load of `addr` would hit and return `value` for as long as
  /// no message arrives: the word is resident with that value, no CPU op,
  /// request or mode change is in flight, so only a message can change it.
  bool loadStaysAt(Addr addr, std::uint64_t value) const;
  /// The CPU stops issuing its spin loads; the next message calls
  /// CpuPort::wake() first.
  void parkCpu() { cpuParked_ = true; }
  /// Credit `n` load hits on `addr` that a parked CPU did not issue: the hit
  /// counter and the cache's LRU stamps read as if they had run.
  void creditHits(Addr addr, std::uint64_t n);
  /// Latch a load as load() does, without scheduling its lookup.
  void latchLoad(Addr addr, DoneValFn done);
  /// Schedule the latched load's lookup as the pending event of `loop`.
  void scheduleLookup(const sim::SpinLoop& loop);
  Cycle hitLatency() const { return params_.l1HitLatency; }

  // ---- network port ----
  void onMessage(const Msg& msg) override;

  // ---- introspection ----
  const mem::CacheArray& cache() const { return cache_; }
  mem::CacheArray& cacheMut() { return cache_; }
  stats::TxStats& txCounters() { return txc_; }
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::size_t writebackBufferSize() const { return wb_.size(); }
  std::string diagnostic() const;

  // ---- model-checker exports ----
  const mem::MshrFile& mshrFile() const { return mshr_; }
  mem::MshrFile& mshrFileMut() { return mshr_; }
  core::WakeupTable& wakeupTableMut() { return wakeups_; }
  const core::WakeupTable& wakeupTable() const { return wakeups_; }
  /// applyingHLA (Fig 6): external requests are parked while the STL switch
  /// is pending at the LLC.
  bool applyingHla() const { return switchPending_; }
  /// Fold every behaviour-relevant field of this controller — cache array,
  /// CPU op latch, MSHR entries (minus retry counters), writeback buffer,
  /// wakeup table, overflow shadow sets, mode/switch flags, and the parked
  /// external requests — into a model-checker fingerprint.
  void hashState(sim::StateHasher& h) const;

 private:
  enum class OpKind : std::uint8_t { Load, Store, Cas };

  struct CpuOp {
    bool active = false;
    OpKind kind = OpKind::Load;
    Addr addr = 0;
    std::uint64_t value = 0;   // store value / CAS desired
    std::uint64_t expect = 0;  // CAS expected
    DoneValFn done;
  };

  sim::SimContext& ctx_;
  sim::Engine& engine_;
  noc::Network& net_;
  CoreId id_;
  mem::CacheArray cache_;
  ProtocolParams params_;
  core::TmPolicy policy_;
  core::ConflictManager cm_;
  unsigned numCores_;
  MsgSink* dir_ = nullptr;
  std::vector<MsgSink*> peers_;
  CpuPort* port_;
  LineAddr lockLine_ = static_cast<LineAddr>(-1);

  CpuOp op_;
  mem::MshrFile mshr_;
  sim::FlatLineTable<mem::LineData> wb_;  ///< dirty evictions awaiting PutAck
  core::WakeupTable wakeups_;
  sim::FlatLineSet ofRd_, ofWr_;  ///< exact local view of the LLC signatures
  /// One bit per flat cache index, set wherever a CPU op sets txRead or
  /// txWrite. Commit and abort visit only these entries; a bit can go stale
  /// (line evicted, way refilled) but never misses a tx-marked entry.
  std::vector<std::uint64_t> txMarks_;

  TxMode mode_ = TxMode::None;
  bool cpuParked_ = false;
  bool triedSwitch_ = false;
  bool switchPending_ = false;            ///< applyingHLA: external reqs blocked
  std::deque<Msg> blockedExternal_;
  DoneFn hlBeginDone_;
  DoneBoolFn switchDone_;  ///< non-overflow switch requests

  stats::TxStats txc_;
  stats::Counter& hits_;
  stats::Counter& misses_;

  bool inAnyTx() const { return mode_ != TxMode::None; }

  // messaging
  void sendToDir(Msg msg);
  void sendWakeup(CoreId core, LineAddr line);
  core::ReqSide myReqSide(bool wantsExclusive) const;
  core::LocalSide myLocalSide(LineAddr line) const;

  // CPU op pipeline
  void startOp(CpuOp op);
  void lookupAndHandle();
  void completeOnLine(mem::CacheEntry& e);
  bool reserveVictim(LineAddr line);
  void evictForSpace(mem::CacheEntry& v);
  void evictTxLine(mem::CacheEntry& v);
  void issueRequest(LineAddr line, bool wantsExclusive);
  void reissue(mem::MshrEntry& m);

  // responses
  void onData(const Msg& msg, bool exclusive);
  void onRejectResp(const Msg& msg);
  void scheduleHeldRetry(LineAddr line, Cycle delay);
  void onWakeup(const Msg& msg);
  void onHlaGrant();
  void onHlaDeny();

  // external requests
  void handleInv(const Msg& msg);
  void handleFwd(const Msg& msg, bool isGetX);
  void complyFwd(mem::CacheEntry& e, bool isGetX);
  void recordRejectedWaiter(LineAddr line, CoreId requester);
  void drainBlockedExternal();

  // transactions
  void markTx(const mem::CacheEntry& e) {
    const std::size_t i = cache_.indexOf(e);
    txMarks_[i / 64] |= 1ull << (i % 64);
  }
  /// Visit every valid tx-marked entry in ascending flat index order — the
  /// order forEachValid uses — and clear the marks.
  template <class Fn>
  void drainTxMarks(Fn&& fn) {
    for (std::size_t w = 0; w < txMarks_.size(); ++w) {
      std::uint64_t bits = txMarks_[w];
      txMarks_[w] = 0;
      for (; bits != 0; bits &= bits - 1) {
        mem::CacheEntry& e =
            cache_.entryAt(w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
        if (e.valid()) fn(e);
      }
    }
  }
  void txAbortInternal(AbortCause cause, const LineAddr* exceptLine);
  void clearTxBitsAndWake();
};

}  // namespace lktm::coh
