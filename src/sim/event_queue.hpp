// Deterministic discrete-event queue: events ordered by (cycle, insertion seq).
//
// Implementation: a two-level calendar queue. A near ring of one-cycle
// buckets covers [now, now + kHorizon); each bucket is an intrusive FIFO of
// slab-pooled event nodes, so same-cycle events come out in insertion-seq
// order for free. Events beyond the horizon wait in an overflow min-heap
// keyed on (cycle, seq) and migrate into the ring as the clock advances.
// The total order is bit-identical to the classic binary-heap implementation
// (see tests/test_kernel.cpp's replay regression), but schedule/runOne are
// O(1) amortized and allocation-free once the node slabs have warmed up.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/types.hpp"

namespace lktm::sim {

/// Thrown when the engine watchdog detects lack of forward progress
/// (a protocol livelock/deadlock) or the cycle budget is exhausted.
class SimulationHang : public std::runtime_error {
 public:
  explicit SimulationHang(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a run exhausts its simulated-cycle budget rather than losing
/// forward progress. The sweep orchestrator records it as `timeout`, not
/// `hang`.
class SimulationTimeout : public std::runtime_error {
 public:
  explicit SimulationTimeout(const std::string& what) : std::runtime_error(what) {}
};

/// Nondeterminism seam for the protocol model checker (src/verify): when an
/// oracle is installed, every cycle whose bucket holds more than one ready
/// event becomes an explicit choice point — the oracle picks which same-cycle
/// event runs next instead of the fixed insertion-seq order. Picking index 0
/// at every choice point reproduces the default (cycle, seq) order bit-exactly
/// (see EventQueue.OracleIndexZeroMatchesDefaultOrder). Oracles can only
/// permute events *within* one cycle; the queue asserts that a chosen event's
/// timestamp equals the current cycle, so no oracle can reorder across cycles.
class ScheduleOracle {
 public:
  virtual ~ScheduleOracle() = default;

  /// Pick one of the `nReady` (>= 2) events runnable at cycle `now`, indexed
  /// in insertion-seq order. Out-of-range picks throw std::logic_error.
  virtual std::size_t pick(Cycle now, std::size_t nReady) = 0;
};

class EventQueue {
 public:
  using Action = sim::Action;

  /// Cycles covered by the near ring; longer delays go to the overflow heap.
  /// 4096 covers every protocol latency (memory = 100 cycles) with headroom
  /// for Compute/DelayReg bursts; only extreme backoffs overflow.
  static constexpr std::size_t kHorizon = 4096;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run `delay` cycles from now. delay==0 runs later in the
  /// current cycle (after currently pending same-cycle events). The callable
  /// is constructed directly inside the event node's inline buffer.
  template <class F>
  void schedule(Cycle delay, F&& fn) {
    insert(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule at an absolute cycle. Throws std::logic_error when `when` is in
  /// the past — a protocol component computed a stale timestamp.
  template <class F>
  void scheduleAt(Cycle when, F&& fn) {
    if (when < now_) [[unlikely]] throwBadCycle("scheduleAt", "is in the past", when);
    insert(when, std::forward<F>(fn));
  }

  Cycle now() const { return now_; }
  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

  /// Run the next event; returns false if the queue is empty. The action runs
  /// in place inside its node, which returns to the free list afterwards —
  /// also when the action throws.
  bool runOne() {
    if (size_ == 0) return false;
    Node* n = oracle_ != nullptr ? popWithOracle() : popDefault();
    --size_;
    ++executed_;
    const RecycleOnExit recycle{*this, n};
    n->fn();
    return true;
  }

  /// Run until the queue drains or `maxCycles` simulated cycles elapse.
  /// Throws SimulationHang if the budget is exceeded.
  void runUntilDrained(Cycle maxCycles);

  /// Drop all pending events and rewind the clock and sequence counter to
  /// zero. Node slabs are retained, so a reused queue does not re-allocate.
  void reset();

  /// Events executed since construction (not reset by reset()).
  std::uint64_t executed() const { return executed_; }
  /// Node slabs allocated since construction (telemetry).
  std::size_t slabsAllocated() const { return slabs_.size(); }

  /// Install (or remove, with nullptr) the same-cycle choice oracle. Not
  /// owned. With no oracle the queue runs the classic (cycle, seq) order.
  void setOracle(ScheduleOracle* oracle) { oracle_ = oracle; }
  ScheduleOracle* oracle() const { return oracle_; }

  /// Visit every pending event's (cycle, insertion seq), in no particular
  /// order. The verifier folds the relative delays into its state fingerprint.
  template <typename Fn>
  void forEachPending(Fn&& fn) const {
    for (const Bucket& b : ring_) {
      for (const Node* n = b.head; n != nullptr; n = n->next) fn(n->when, n->seq);
    }
    for (const Node* n : overflow_) fn(n->when, n->seq);
  }

 private:
  struct Node {
    Cycle when = 0;
    std::uint64_t seq = 0;
    Node* next = nullptr;
    Action fn;
  };
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  /// Returns a node to the free list when runOne leaves, normally or by throw.
  struct RecycleOnExit {
    EventQueue& q;
    Node* n;
    ~RecycleOnExit() { q.recycleNode(n); }
  };

  static constexpr std::size_t kMask = kHorizon - 1;
  static constexpr std::size_t kOccWords = kHorizon / 64;
  static constexpr std::size_t kSlabNodes = 256;
  static_assert((kHorizon & kMask) == 0, "horizon must be a power of two");

  // The ring stays on the heap: an inline 4096-bucket array would add 64 KiB
  // to every queue (and to every SimContext) and raised peak RSS measurably.
  std::vector<Bucket> ring_;
  std::array<std::uint64_t, kOccWords> occ_{};
  std::vector<Node*> overflow_;  ///< min-heap on (when, seq)
  ScheduleOracle* oracle_ = nullptr;
  Node* free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> slabs_;

  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::size_t ringSize_ = 0;
  std::uint64_t executed_ = 0;

  static bool laterInHeap(const Node* a, const Node* b) {
    return a->when != b->when ? a->when > b->when : a->seq > b->seq;
  }

  // ---- per-event fast path (inline) ----

  Node* allocNode() {
    if (free_ == nullptr) [[unlikely]] growSlab();
    Node* n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
  }

  void recycleNode(Node* n) {
    n->fn = nullptr;  // release captured state eagerly
    n->next = free_;
    free_ = n;
  }

  template <class F>
  void insert(Cycle when, F&& fn) {
    // Guards the `when - now_` horizon test below against u64 wrap: a delay
    // large enough to overflow `now_ + delay` would otherwise alias into a
    // ring bucket of an earlier "day" and run kHorizon cycles early.
    if (when < now_) [[unlikely]] throwBadCycle("insert", "wrapped past", when);
    Node* n = allocNode();
    try {
      n->fn = std::forward<F>(fn);
    } catch (...) {
      recycleNode(n);
      throw;
    }
    n->when = when;
    n->seq = seq_++;
    ++size_;
    if (when - now_ < kHorizon) [[likely]] {
      appendToRing(n);
    } else {
      pushOverflow(n);
    }
  }

  void appendToRing(Node* n) {
    // Day-rollover bounds check: the ring covers exactly [now_, now_+kHorizon),
    // so an event outside that window would collide with a bucket belonging
    // to a different cycle (same index mod kHorizon) and fire at the wrong
    // time.
    assert(n->when >= now_ && n->when - now_ < kHorizon &&
           "calendar ring day rollover: event outside the horizon window");
    const std::size_t idx = n->when & kMask;
    Bucket& b = ring_[idx];
    if (b.head == nullptr) {
      b.head = b.tail = n;
      occ_[idx / 64] |= 1ull << (idx % 64);
    } else {
      b.tail->next = n;
      b.tail = n;
    }
    ++ringSize_;
  }

  std::size_t earliestRingIndex() const {
    // All ring events live in [now_, now_ + kHorizon), so scanning the
    // occupancy bitmap in wrapped index order starting at now_ visits buckets
    // in cycle order. Each bucket holds exactly one cycle's events, FIFO.
    const std::size_t start = now_ & kMask;
    std::size_t word = start / 64;
    std::uint64_t bits = occ_[word] & (~0ull << (start % 64));
    for (std::size_t scanned = 0; scanned <= kOccWords; ++scanned) {
      if (bits != 0) {
        return word * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      }
      word = (word + 1) % kOccWords;
      bits = occ_[word];
    }
    return static_cast<std::size_t>(-1);
  }

  Node* popEarliestRing() {
    const std::size_t idx = earliestRingIndex();
    assert(idx != static_cast<std::size_t>(-1) && "occupancy bitmap out of sync");
    Bucket& b = ring_[idx];
    Node* n = b.head;
    b.head = n->next;
    if (b.head == nullptr) {
      b.tail = nullptr;
      occ_[idx / 64] &= ~(1ull << (idx % 64));
    }
    --ringSize_;
    return n;
  }

  Node* popDefault() {
    // With the ring empty, jump across the empty window to the earliest
    // far-future event.
    Node* n = ringSize_ > 0 ? popEarliestRing() : popOverflow();
    assert(n->when >= now_);
    now_ = n->when;
    // Pull newly-in-horizon events into the ring *before* running the action,
    // so same-cycle ring appends from the action keep their seq order behind
    // any older overflow events for the same bucket.
    if (!overflow_.empty() && overflow_.front()->when - now_ < kHorizon) migrateOverflow();
    return n;
  }

  // ---- rare paths (out of line) ----

  void growSlab();
  void pushOverflow(Node* n);
  Node* popOverflow();
  void migrateOverflow();
  Node* popWithOracle();
  [[noreturn]] void throwBadCycle(const char* where, const char* what, Cycle when) const;
};

}  // namespace lktm::sim
