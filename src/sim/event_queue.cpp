#include "sim/event_queue.hpp"

#include <algorithm>
#include <string>

#include "sim/kernel_stats.hpp"

namespace lktm::sim {

EventQueue::EventQueue() : ring_(kHorizon) {}

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
}

}  // namespace lktm::sim
