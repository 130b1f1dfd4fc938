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
//
// Parked spin loops (SpinLoop) run no events at all: the queue keeps one
// anchor event per loop and a log of the events run, and when the loop is
// woken puts its next event back exactly where the loop's own events would
// have put it (DESIGN.md §8).
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

/// A spin loop's delays and the place of one of its events. The loop cycles
/// through `phases` events; phase i's event schedules the next phase's
/// `delay[i]` cycles later, as the last thing it does.
struct SpinLoopState {
  static constexpr unsigned kMaxPhases = 8;

  std::array<Cycle, kMaxPhases> delay{};
  unsigned phases = 0;

  unsigned phase = 0;      ///< the event's phase
  Cycle when = 0;          ///< its cycle
  std::uint64_t seq = 0;   ///< insertion counter when it would have been scheduled
  std::uint64_t tie = 0;   ///< order among loop events of the same (when, seq)
  std::uint64_t ran = 0;   ///< loop events run since park before it
};

/// A loop of events that only reads state its owner watches (a CPU spinning
/// on a line its L1 holds). Its owner parks it instead of scheduling its next
/// event; the queue then runs the loop's events without executing anything.
///
/// park() sets the fields to the loop's pending event; while the loop is
/// parked the queue keeps its place itself (DESIGN.md §8). After unpark()
/// they describe the pending event, which the owner puts back with
/// scheduleUnparked(). At settle(), `ran`, `phase` and `when` count and place
/// the loop events run.
class SpinLoop : public SpinLoopState {
 public:
  bool parked = false;

  /// The run ends (EventQueue::settleParked) with the loop parked: bring the
  /// owner's state up to the `ran` loop events, as the unparked run shows it.
  virtual void settle() = 0;

 protected:
  ~SpinLoop() = default;

 private:
  friend class EventQueue;
  std::uint32_t line_ = 0;  ///< while parked: its anchor in the queue's lines_
};

class EventQueue {
 public:
  using Action = sim::Action;

  /// Cycles covered by the near ring; longer delays go to the overflow heap.
  /// 4096 covers every protocol latency (memory = 100 cycles) with headroom
  /// for Compute/DelayReg bursts; only extreme backoffs overflow.
  static constexpr std::size_t kHorizon = 4096;
  /// No deadline: the run is not stopped at any cycle.
  static constexpr Cycle kNever = ~Cycle{0};
  /// Every phase delay of a parked loop is below this, so a woken loop's
  /// event is due within this many cycles.
  static constexpr Cycle kParkedDelayLimit = 64;

  EventQueue();
  ~EventQueue();
  // Not copyable or movable: parked loops and put-back nodes are tracked by
  // address.
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
  ///
  /// With loops parked, the next event to run may be a parked loop's event
  /// past the deadline (setDeadline): then the clock reads that event's
  /// cycle, no queued event runs, and it returns true.
  bool runOne() {
    if (!parked_.empty() && parkedLoopPassesDeadline()) [[unlikely]] return true;
    if (size_ == 0) return false;
    Node* n = oracle_ != nullptr ? popWithOracle() : popDefault();
    --size_;
    ++executed_;
    const RecycleOnExit recycle{*this, n};
    running_ = n;
    if (n->tie != kEventTie) [[unlikely]] takePutBack(*n);
    n->fn();
    // A loop is parked, or a woken loop's event is pending: keep the log.
    if (!parked_.empty() || !putBacks_.empty()) [[unlikely]] logRun(*n);
    return true;
  }

  /// The cycle past which the owner ends the run (Engine::run's watchdog and
  /// cycle budget). A parked loop's event past it is where the run ends: the
  /// owner then calls settleParked() and runs nothing more.
  void setDeadline(Cycle when) { deadline_ = when; }

  /// From inside a running event: park `loop` instead of scheduling its
  /// `phase` event `delay` cycles from now (the loop's delays must be set).
  /// Returns false, parking nothing, under a schedule oracle or when a delay
  /// reaches kParkedDelayLimit; the caller then schedules as usual.
  bool park(SpinLoop& loop, unsigned phase, Cycle delay);

  /// From inside a running event: bring `loop` up to the present and take it
  /// off the parked set. Its fields then give its pending event, which the
  /// owner must put back with scheduleUnparked().
  void unpark(SpinLoop& loop);

  /// The run ends after the last event run (or the parked loop's event that
  /// passed the deadline): bring every parked loop up to there and call its
  /// settle().
  void settleParked();

  /// Drop a parked loop whose owner goes away, running nothing. Every owner
  /// calls it on destruction (reset() relies on it).
  void forget(SpinLoop& loop);

  /// Schedule `fn` as the pending event of a just-unparked loop: at
  /// loop.when, before every event of that cycle inserted at or after
  /// loop.seq, and among loop events by loop.tie.
  template <class F>
  void scheduleUnparked(const SpinLoop& loop, F&& fn) {
    Node* n = allocNode();
    try {
      n->fn = std::forward<F>(fn);
    } catch (...) {
      recycleNode(n);
      throw;
    }
    n->when = loop.when;
    n->seq = loop.seq;
    n->tie = loop.tie;
    ++size_;
    putBacks_.push_back(n);
    insertInOrder(n);
  }

  /// Run until the queue drains or `maxCycles` simulated cycles elapse.
  /// Throws SimulationHang if the budget is exceeded.
  void runUntilDrained(Cycle maxCycles);

  /// Drop all pending events and parked loops, clear the deadline, and
  /// rewind the clock and sequence counter to zero. Node slabs are retained,
  /// so a reused queue does not re-allocate.
  void reset();

  /// Events executed since construction (not reset by reset()).
  std::uint64_t executed() const { return executed_; }
  /// Parked-loop events the queue has placed one at a time since
  /// construction (not reset by reset()): it places a loop's events only
  /// when it wakes, when the log is full and at the run's end.
  std::uint64_t loopEventsStepped() const { return stepped_; }
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
  /// Ordinary events come after every loop event of the same (when, seq).
  static constexpr std::uint64_t kEventTie = ~std::uint64_t{0};
  /// A loop event's tie stands for its predecessor's place: a rank, ordered
  /// as numbers, when that ran before the log's first event; else
  /// kDescBase + the index of its description in descs_.
  static constexpr std::uint64_t kDescBase = std::uint64_t{1} << 62;

  struct Node {
    Cycle when = 0;
    std::uint64_t seq = 0;
    std::uint64_t tie = kEventTie;  ///< fits the padding before fn
    Node* next = nullptr;
    Action fn;
  };
  /// An event's place in the total order: (when, seq, tie) ascending.
  struct Key {
    Cycle when;
    std::uint64_t seq;
    std::uint64_t tie;
  };
  /// Ordinary events only: a tie is then kEventTie or (when, seq) differ.
  static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.tie < b.tie;
  }
  static Key keyOf(const Node& n) { return Key{n.when, n.seq, n.tie}; }
  /// One event run while the log is kept, with the insertion counter after it.
  struct LogEntry {
    Key key;
    std::uint64_t after;
  };
  /// 2048 x 32 B = 64 KiB. When it is full, every parked loop's anchor moves
  /// to the present and the log starts again.
  static constexpr std::size_t kLogCapacity = 2048;
  /// A parked loop's delays and anchor, by index in lines_.
  using LineId = std::uint32_t;
  /// What a tie at or above kDescBase stands for: the real event at log index
  /// `at` (the `serial`-th park), or event `at` of loop line `line`.
  struct PredDesc {
    static constexpr LineId kReal = ~LineId{0};
    LineId line;
    std::uint64_t at;
    std::uint64_t serial;
  };
  /// An event's predecessor, decoded from a tie.
  struct Pred {
    enum Kind : std::uint8_t { kRank, kReal, kLoop } kind;
    std::uint64_t at;      ///< rank, log index or loop event index
    std::uint64_t serial;  ///< kReal: park order among events at one log index
    LineId line;           ///< kLoop
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
  std::uint64_t stepped_ = 0;

  // ---- parked spin loops ----
  const Node* running_ = nullptr;  ///< the event whose action runs
  Cycle deadline_ = kNever;
  std::vector<SpinLoop*> parked_;
  /// Woken loops' events not yet run.
  std::vector<Node*> putBacks_;
  /// Events run since the log's start, and the counter before the first.
  std::vector<LogEntry> log_;
  std::uint64_t logBase_ = 0;
  std::vector<PredDesc> descs_;
  /// Every loop parked since the log's start: its delays and anchor (the
  /// place of one of its events; `ran` is that event's index since park).
  std::vector<SpinLoopState> lines_;
  /// Final places found since the log's start: how many logged events
  /// precede event `k` of a line. A direct-mapped cache keyed by (line, k),
  /// so a collision only forgets a place; clearLog() moves to a new epoch.
  struct Placed {
    std::uint64_t key;
    std::uint64_t epoch;
    std::size_t g;
  };
  static constexpr unsigned kPlacedBits = 10;
  std::vector<Placed> placed_;
  std::uint64_t epoch_ = 1;
  std::uint64_t parks_ = 0;
  /// The loop whose event passed the deadline, and that event.
  const SpinLoop* passed_ = nullptr;
  std::uint64_t passedAt_ = 0;
  Cycle passDeadline_ = 0;

  static bool laterInHeap(const Node* a, const Node* b) {
    return before(keyOf(*b), keyOf(*a));
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
    n->tie = kEventTie;
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

  void takePutBack(const Node& n);
  void logRun(const Node& n);
  void insertInOrder(Node* n);
  bool parkedLoopPassesDeadline();
  void rebase();
  void clearLog();
  void dropParked(SpinLoop& loop);
  std::uint64_t addDesc(PredDesc d);
  Pred decode(std::uint64_t tie) const;
  Pred predOf(LineId line, std::uint64_t k) const;
  static std::uint64_t placedKey(LineId line, std::uint64_t k) {
    return std::uint64_t{line} << 40 | k;
  }
  Placed& placedSlot(std::uint64_t key) {
    return placed_[(key * 0x9e3779b97f4a7c15ull) >> (64 - kPlacedBits)];
  }
  std::size_t cycleBegin(Cycle c) const;
  std::uint64_t afterAt(std::size_t g) const { return g == 0 ? logBase_ : log_[g - 1].after; }
  std::size_t locate(LineId line, std::uint64_t k);
  std::size_t place(LineId line, std::uint64_t k, Cycle when, std::uint64_t seq);
  std::uint64_t seqOf(LineId line, std::uint64_t k);
  bool predBefore(const Pred& a, const Pred& b);
  bool loopBefore(LineId a, std::uint64_t i, LineId b, std::uint64_t j);
  bool tieBefore(std::uint64_t a, std::uint64_t b);
  std::uint64_t firstPending(LineId line, const Key* running);
  void growSlab();
  void pushOverflow(Node* n);
  Node* popOverflow();
  void migrateOverflow();
  Node* popWithOracle();
  [[noreturn]] void throwBadCycle(const char* where, const char* what, Cycle when) const;
};

}  // namespace lktm::sim
