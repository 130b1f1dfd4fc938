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
#include <cstdint>
#include <memory>
#include <stdexcept>
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

/// Thrown when a run exhausts an explicit budget — the simulated-cycle
/// ceiling or a host wall-clock deadline — rather than losing forward
/// progress. The sweep orchestrator records it as `timeout`, not `hang`.
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
  /// current cycle (after currently pending same-cycle events).
  void schedule(Cycle delay, Action fn) { insert(now_ + delay, std::move(fn)); }

  /// Schedule at an absolute cycle. Throws std::logic_error when `when` is in
  /// the past — a protocol component computed a stale timestamp.
  void scheduleAt(Cycle when, Action fn);

  Cycle now() const { return now_; }
  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }

  /// Run the next event; returns false if the queue is empty.
  bool runOne();

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

  static constexpr std::size_t kMask = kHorizon - 1;
  static constexpr std::size_t kOccWords = kHorizon / 64;
  static constexpr std::size_t kSlabNodes = 256;
  static_assert((kHorizon & kMask) == 0, "horizon must be a power of two");

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

  Node* allocNode();
  void recycleNode(Node* n);
  void insert(Cycle when, Action fn);
  void appendToRing(Node* n);
  void migrateOverflow();
  std::size_t earliestRingIndex() const;
  Node* popEarliestRing();
  Node* popDefault();
  Node* popWithOracle();
};

}  // namespace lktm::sim
