#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/kernel_stats.hpp"

namespace lktm::sim {

EventQueue::EventQueue() : ring_(kHorizon) {
  for (std::size_t i = 0; i < kWheel; ++i) wheelTail_[i] = &wheelHead_[i];
}

EventQueue::~EventQueue() = default;

void EventQueue::growSlab() {
  slabs_.emplace_back(new Node[kSlabNodes]);
  Node* s = slabs_.back().get();
  for (std::size_t i = kSlabNodes; i > 0; --i) {
    s[i - 1].next = free_;
    free_ = &s[i - 1];
  }
  kstats::queueSlabs.fetch_add(1, std::memory_order_relaxed);
}

void EventQueue::throwBadCycle(const char* where, const char* what, Cycle when) const {
  throw std::logic_error(std::string("EventQueue::") + where + ": cycle " +
                         std::to_string(when) + " " + what + " (now=" +
                         std::to_string(now_) + ")");
}

void EventQueue::pushOverflow(Node* n) {
  overflow_.push_back(n);
  std::push_heap(overflow_.begin(), overflow_.end(), laterInHeap);
}

EventQueue::Node* EventQueue::popOverflow() {
  std::pop_heap(overflow_.begin(), overflow_.end(), laterInHeap);
  Node* n = overflow_.back();
  overflow_.pop_back();
  n->next = nullptr;
  return n;
}

void EventQueue::migrateOverflow() {
  while (!overflow_.empty() && overflow_.front()->when - now_ < kHorizon) {
    appendToRing(popOverflow());
  }
}

EventQueue::Node* EventQueue::popWithOracle() {
  // Advance the clock to the earliest pending cycle and migrate overflow
  // *before* choosing, so the entire same-cycle event set sits in one ring
  // bucket in insertion-seq order. Index 0 is then exactly the node the
  // default path would pop, which is what keeps a pick-0 oracle bit-exact.
  Cycle when;
  if (ringSize_ > 0) {
    Bucket& b = ring_[earliestRingIndex()];
    when = b.head->when;
  } else {
    when = overflow_.front()->when;
  }
  assert(when >= now_);
  now_ = when;
  migrateOverflow();

  Bucket& b = ring_[when & kMask];
  std::size_t nReady = 0;
  for (const Node* p = b.head; p != nullptr; p = p->next) {
    assert(p->when == when && "ring bucket mixes cycles");
    ++nReady;
  }
  assert(nReady > 0 && "earliest bucket empty after migration");
  std::size_t idx = 0;
  if (nReady > 1) {
    idx = oracle_->pick(now_, nReady);
    if (idx >= nReady) {
      throw std::logic_error("ScheduleOracle::pick returned " + std::to_string(idx) +
                             " with only " + std::to_string(nReady) + " ready events");
    }
  }
  Node* prev = nullptr;
  Node* n = b.head;
  for (std::size_t i = 0; i < idx; ++i) {
    prev = n;
    n = n->next;
  }
  if (prev == nullptr) {
    b.head = n->next;
  } else {
    prev->next = n->next;
  }
  if (b.tail == n) b.tail = prev;
  if (b.head == nullptr) {
    const std::size_t bi = when & kMask;
    occ_[bi / 64] &= ~(1ull << (bi % 64));
  }
  n->next = nullptr;
  --ringSize_;
  // Oracle permutations are same-cycle only; a cross-cycle reorder would
  // break the (cycle, *) total order every component relies on.
  assert(n->when == now_ && "oracle reordered across cycles");
  return n;
}

void EventQueue::runUntilDrained(Cycle maxCycles) {
  const Cycle limit = now_ + maxCycles;
  deadline_ = limit;
  while (runOne()) {
    if (now_ > limit) {
      throw SimulationHang("event queue exceeded cycle budget of " +
                           std::to_string(maxCycles) + " cycles");
    }
  }
}

void EventQueue::reset() {
  for (Bucket& b : ring_) {
    while (b.head != nullptr) {
      Node* n = b.head;
      b.head = n->next;
      recycleNode(n);
    }
    b.tail = nullptr;
  }
  occ_.fill(0);
  for (Node* n : overflow_) recycleNode(n);
  overflow_.clear();
  now_ = 0;
  seq_ = 0;
  size_ = 0;
  ringSize_ = 0;
  // Owners forget() their loops when they go, so every loop still parked
  // has a live owner; it is simply no longer parked.
  for (SpinLoop* head : wheelHead_) {
    for (SpinLoop* loop = head; loop != nullptr; loop = loop->nextParked_) loop->parked = false;
  }
  running_ = nullptr;
  deadline_ = kNever;
  nParked_ = 0;
  ties_ = 0;
  wheelHead_.fill(nullptr);
  for (std::size_t i = 0; i < kWheel; ++i) wheelTail_[i] = &wheelHead_[i];
  wheelOcc_ = 0;
  wheelNow_ = 0;
  log_.clear();
  logBase_ = 0;
}

// ------------------------------------------------------- parked spin loops
//
// A parked loop's events still happen, in the queue's order, only nobody
// runs them. Event e of the loop would have been inserted while its
// predecessor ran, as that event's last insertion, when the insertion
// counter read A; so e runs after every event of its cycle inserted before
// A and before every one inserted at or after A: its place is (cycle, A).
// Two loop events with the same place keep the order of their predecessors,
// which `tie` carries (a counter bumped in execution order). While loops are
// parked, logRun() records each event that runs with the counter after it;
// a replay walks the parked loops' events in order through that log, which
// yields each one's A, and stops at the present.

void EventQueue::logRun(const Node& n) {
  log_.push_back(LogEntry{keyOf(n), seq_});
  if (log_.size() == kLogCapacity) replayToPresent();
}

void EventQueue::insertInOrder(Node* n) {
  // A woken loop's event is due within kParkedDelayLimit cycles: in the ring.
  assert(n->when >= now_ && n->when - now_ < kParkedDelayLimit);
  const std::size_t idx = n->when & kMask;
  Bucket& b = ring_[idx];
  Node* prev = nullptr;
  Node* cur = b.head;
  while (cur != nullptr && before(keyOf(*cur), keyOf(*n))) {
    prev = cur;
    cur = cur->next;
  }
  n->next = cur;
  if (prev == nullptr) {
    b.head = n;
  } else {
    prev->next = n;
  }
  if (cur == nullptr) b.tail = n;
  occ_[idx / 64] |= 1ull << (idx % 64);
  ++ringSize_;
}

void EventQueue::wheelPush(SpinLoop* loop) {
  assert(loop->when >= wheelNow_ && loop->when - wheelNow_ < kWheel);
  const std::size_t idx = loop->when % kWheel;
  loop->nextParked_ = nullptr;
  *wheelTail_[idx] = loop;
  wheelTail_[idx] = &loop->nextParked_;
  wheelOcc_ |= 1ull << idx;
}

void EventQueue::wheelRemove(SpinLoop& loop) {
  const std::size_t idx = loop.when % kWheel;
  SpinLoop** link = &wheelHead_[idx];
  while (*link != &loop) {
    assert(*link != nullptr && "parked loop missing from its wheel slot");
    link = &(*link)->nextParked_;
  }
  *link = loop.nextParked_;
  if (wheelTail_[idx] == &loop.nextParked_) wheelTail_[idx] = link;
  if (wheelHead_[idx] == nullptr) wheelOcc_ &= ~(1ull << idx);
  loop.nextParked_ = nullptr;
  loop.parked = false;
  if (--nParked_ == 0) log_.clear();
}

SpinLoop* EventQueue::replayParked(const Key& stop, Cycle deadline) {
  // The hottest loop while CPUs spin: one pass per parked loop event. It
  // drains the earliest wheel slot in order, so the next loop is known
  // before this one's successor is placed, and keeps the wheel's cursor,
  // occupancy and the tie counter in locals.
  const LogEntry* entry = log_.data();
  const LogEntry* const logEnd = entry + log_.size();
  std::uint64_t base = logBase_;
  std::uint64_t occ = wheelOcc_;
  Cycle at = wheelNow_;
  std::uint64_t ties = ties_;
  SpinLoop* passed = nullptr;
  bool stopped = false;
  while (!stopped) {
    assert(occ != 0);
    at += static_cast<Cycle>(
        std::countr_zero(std::rotr(occ, static_cast<int>(at % kWheel))));
    const std::size_t idx = at % kWheel;
    for (SpinLoop* loop = wheelHead_[idx]; loop != nullptr;) {
      assert(loop->when == at && "parked-loop wheel out of its window");
      const Key k{at, loop->seq, loop->tie};
      while (entry != logEnd && before(entry->key, k)) base = (entry++)->after;
      if (!before(k, stop)) {
        stopped = true;
        break;
      }
      // The event runs: it inserts its successor with the counter at `base`.
      SpinLoop* const rest = loop->nextParked_;
      wheelHead_[idx] = rest;
      if (rest == nullptr) wheelTail_[idx] = &wheelHead_[idx];
      const unsigned phase = loop->phase;
      ++loop->ran;
      loop->when = at + loop->delay[phase];
      loop->phase = phase + 1 == loop->phases ? 0 : phase + 1;
      loop->seq = base;
      loop->tie = ++ties;
      const std::size_t to = loop->when % kWheel;
      loop->nextParked_ = nullptr;
      *wheelTail_[to] = loop;
      wheelTail_[to] = &loop->nextParked_;
      occ |= 1ull << to;
      if (at > deadline) {
        passed = loop;
        now_ = at;
        stopped = true;
        break;
      }
      // A zero-delay successor went to this slot's tail; the walk meets it.
      loop = rest != nullptr ? rest : wheelHead_[idx];
    }
    if (wheelHead_[idx] == nullptr) occ &= ~(1ull << idx);
  }
  assert((passed != nullptr || entry == logEnd) && "a logged event is past the stop");
  wheelOcc_ = occ;
  wheelNow_ = at;
  ties_ = ties;
  logBase_ = base;
  log_.clear();
  return passed;
}

void EventQueue::replayToPresent() {
  assert(running_ != nullptr && "parked loops replay only from inside an event");
  replayParked(keyOf(*running_), kNever);
  // Every pending loop event is now at or after the present, and within
  // kWheel cycles of it: its predecessor ran before.
  wheelNow_ = now_;
}

bool EventQueue::parkedLoopPassesDeadline() {
  // A ring event is due within kHorizon cycles: nothing to check unless the
  // deadline falls inside that window or only overflow events are left.
  if (ringSize_ != 0 && deadline_ >= now_ + kHorizon) return false;
  Key stop{kNever, ~std::uint64_t{0}, kEventTie};
  if (size_ != 0) {
    const Node* next = ringSize_ != 0 ? ring_[earliestRingIndex()].head : overflow_.front();
    if (next->when <= deadline_) return false;
    stop = keyOf(*next);
  } else if (deadline_ == kNever) {
    throw std::logic_error(
        "EventQueue: drained with parked spin loops and no deadline to end the run");
  }
  return replayParked(stop, deadline_) != nullptr;
}

void EventQueue::settleParked() {
  if (nParked_ == 0) return;
  // The loop events before the last event run, if a replay has not run
  // them yet (none can follow it: the run ends with that event).
  replayToPresent();
  for (SpinLoop* head : wheelHead_) {
    for (SpinLoop* loop = head; loop != nullptr; loop = loop->nextParked_) loop->settle();
  }
}

bool EventQueue::park(SpinLoop& loop, unsigned phase, Cycle delay) {
  assert(!loop.parked && loop.phases > 0 && loop.phases <= SpinLoop::kMaxPhases);
  if (oracle_ != nullptr || delay >= kParkedDelayLimit) return false;
  for (unsigned p = 0; p < loop.phases; ++p) {
    if (loop.delay[p] >= kParkedDelayLimit) return false;
  }
  if (nParked_ != 0) {
    replayToPresent();
  } else {
    if (log_.capacity() == 0) log_.reserve(kLogCapacity);
    wheelNow_ = now_;
  }
  loop.phase = phase;
  loop.when = now_ + delay;
  loop.seq = seq_;
  loop.tie = ++ties_;
  loop.ran = 0;
  loop.parked = true;
  wheelPush(&loop);
  ++nParked_;
  return true;
}

void EventQueue::unpark(SpinLoop& loop) {
  assert(loop.parked);
  replayToPresent();
  wheelRemove(loop);
}

void EventQueue::forget(SpinLoop& loop) {
  if (loop.parked) wheelRemove(loop);
}

}  // namespace lktm::sim
