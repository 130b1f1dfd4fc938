#include "sim/event_queue.hpp"

#include <algorithm>
#include <numeric>
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
  for (SpinLoop* loop : parked_) loop->parked = false;
  parked_.clear();
  putBacks_.clear();
  running_ = nullptr;
  deadline_ = kNever;
  passed_ = nullptr;
  clearLog();
}

// ------------------------------------------------------- parked spin loops
//
// A parked loop's events still happen, in the queue's order, only nobody
// runs them. Event e of the loop would have been inserted while its
// predecessor ran, as that event's last insertion, when the insertion
// counter read A; so e runs after every event of its cycle inserted before
// A and before every one inserted at or after A: its place is (cycle, A).
// Two loop events with the same place keep the order of their predecessors.
//
// While a loop is parked or a woken loop's event is pending, logRun()
// records each event run with the counter after it. A loop's cycles and
// phases follow from its anchor by arithmetic. An event's A is the counter
// after the last logged event before its predecessor; when no logged event
// ran in the predecessor's cycle, that is the counter before the cycle,
// whatever the predecessor's own place. So locate() walks back only to the
// loop's last event in such a cycle, and forward again from there.

namespace {

Cycle periodOf(const SpinLoopState& line) {
  Cycle period = 0;
  for (unsigned p = 0; p < line.phases; ++p) period += line.delay[p];
  return period;
}

unsigned nextPhase(const SpinLoopState& line, unsigned phase) {
  return phase + 1 == line.phases ? 0 : phase + 1;
}

unsigned phaseOf(const SpinLoopState& line, std::uint64_t k) {
  return static_cast<unsigned>((line.phase + (k - line.ran) % line.phases) % line.phases);
}

Cycle whenOf(const SpinLoopState& line, std::uint64_t k) {
  const std::uint64_t n = k - line.ran;
  Cycle at = line.when + n / line.phases * periodOf(line);
  unsigned phase = line.phase;
  for (std::uint64_t r = n % line.phases; r > 0; --r) {
    at += line.delay[phase];
    phase = nextPhase(line, phase);
  }
  return at;
}

/// The index of the loop's first event after cycle `c`.
std::uint64_t firstAfter(const SpinLoopState& line, Cycle c) {
  if (c < line.when) return line.ran;
  const Cycle period = periodOf(line);
  const std::uint64_t periods = (c - line.when) / period;
  std::uint64_t k = line.ran + periods * line.phases;
  Cycle at = line.when + periods * period;
  unsigned phase = line.phase;
  while (at <= c) {
    at += line.delay[phase];
    phase = nextPhase(line, phase);
    ++k;
  }
  return k;
}

/// Whether events i of `a` and j of `b`, in one cycle, are in lockstep: the
/// loops' delays repeat alike from there, so every earlier and later pair
/// shares a cycle too.
bool lockstep(const SpinLoopState& a, std::uint64_t i, const SpinLoopState& b, std::uint64_t j) {
  const unsigned pa = phaseOf(a, i);
  const unsigned pb = phaseOf(b, j);
  const unsigned n = std::lcm(a.phases, b.phases);
  for (unsigned s = 0; s < n; ++s) {
    if (a.delay[(pa + s) % a.phases] != b.delay[(pb + s) % b.phases]) return false;
  }
  return true;
}

}  // namespace

void EventQueue::clearLog() {
  log_.clear();
  descs_.clear();
  lines_.clear();
  ++epoch_;
  logBase_ = seq_;
}

std::uint64_t EventQueue::addDesc(PredDesc d) {
  descs_.push_back(d);
  return kDescBase + (descs_.size() - 1);
}

EventQueue::Pred EventQueue::decode(std::uint64_t tie) const {
  assert(tie != kEventTie);
  if (tie < kDescBase) return Pred{Pred::kRank, tie, 0, 0};
  const PredDesc& d = descs_[tie - kDescBase];
  if (d.line == PredDesc::kReal) return Pred{Pred::kReal, d.at, d.serial, 0};
  return Pred{Pred::kLoop, d.at, 0, d.line};
}

EventQueue::Pred EventQueue::predOf(LineId line, std::uint64_t k) const {
  if (k == lines_[line].ran) return decode(lines_[line].tie);
  return Pred{Pred::kLoop, k - 1, 0, line};
}

std::size_t EventQueue::cycleBegin(Cycle c) const {
  const auto it = std::lower_bound(log_.begin(), log_.end(), c,
                                   [](const LogEntry& e, Cycle w) { return e.key.when < w; });
  return static_cast<std::size_t>(it - log_.begin());
}

std::size_t EventQueue::place(LineId line, std::uint64_t k, Cycle when, std::uint64_t seq) {
  std::size_t g = cycleBegin(when);
  for (; g < log_.size() && log_[g].key.when == when; ++g) {
    const Key& e = log_[g].key;
    const bool first = e.seq != seq ? e.seq < seq
                                    : e.tie != kEventTie &&
                                          predBefore(decode(e.tie), predOf(line, k));
    if (!first) break;
  }
  // A place with a logged event after it is final: later events come later.
  if (g < log_.size()) {
    const std::uint64_t key = placedKey(line, k);
    placedSlot(key) = Placed{key, epoch_, g};
  }
  return g;
}

std::size_t EventQueue::locate(LineId line, std::uint64_t k) {
  const SpinLoopState& l = lines_[line];
  std::uint64_t j = k;
  Cycle when = whenOf(l, k);
  unsigned phase = phaseOf(l, k);
  std::size_t g;
  for (;;) {
    const std::uint64_t key = placedKey(line, j);
    if (const Placed& p = placedSlot(key); p.key == key && p.epoch == epoch_) {
      g = p.g;
      break;
    }
    ++stepped_;
    g = cycleBegin(when);
    if (g == log_.size() || log_[g].key.when != when) break;
    if (j == l.ran) {
      g = place(line, j, when, l.seq);
      break;
    }
    --j;
    phase = phase == 0 ? l.phases - 1 : phase - 1;
    when -= l.delay[phase];
  }
  // Forward again: each event's place gives its successor's seq.
  while (j < k) {
    when += l.delay[phase];
    phase = nextPhase(l, phase);
    ++j;
    g = place(line, j, when, afterAt(g));
  }
  return g;
}

std::uint64_t EventQueue::seqOf(LineId line, std::uint64_t k) {
  return k == lines_[line].ran ? lines_[line].seq : afterAt(locate(line, k - 1));
}

bool EventQueue::predBefore(const Pred& a, const Pred& b) {
  // A rank ran before the log's first event, so before everything else.
  if (a.kind == Pred::kRank || b.kind == Pred::kRank) {
    return b.kind != Pred::kRank || (a.kind == Pred::kRank && a.at < b.at);
  }
  if (a.kind == Pred::kReal && b.kind == Pred::kReal) {
    return a.at != b.at ? a.at < b.at : a.serial < b.serial;
  }
  // Logged event j runs before a loop event with g logged events before it
  // exactly when j < g.
  if (a.kind == Pred::kReal) return a.at < locate(b.line, b.at);
  if (b.kind == Pred::kReal) return locate(a.line, a.at) <= b.at;
  return loopBefore(a.line, a.at, b.line, b.at);
}

bool EventQueue::loopBefore(LineId a, std::uint64_t i, LineId b, std::uint64_t j) {
  if (a == b) return i < j;
  const SpinLoopState& la = lines_[a];
  const SpinLoopState& lb = lines_[b];
  const Cycle wa = whenOf(la, i);
  const Cycle wb = whenOf(lb, j);
  if (wa != wb) return wa < wb;
  if (lockstep(la, i, lb, j)) {
    // Loops in lockstep keep the order they met in: compare the pair where
    // one of them is at its anchor, whose predecessor is a rank or logged.
    const std::uint64_t back = std::min(i - la.ran, j - lb.ran);
    i -= back;
    j -= back;
  }
  const std::uint64_t sa = seqOf(a, i);
  const std::uint64_t sb = seqOf(b, j);
  if (sa != sb) return sa < sb;
  return predBefore(predOf(a, i), predOf(b, j));
}

bool EventQueue::tieBefore(std::uint64_t a, std::uint64_t b) {
  if (a == kEventTie || b == kEventTie) return a < b;
  return predBefore(decode(a), decode(b));
}

std::uint64_t EventQueue::firstPending(LineId line, const Key* running) {
  // Every loop event before now_ ran. One in now_ ran if a logged event
  // follows it, or if it comes before the running event.
  const SpinLoopState& l = lines_[line];
  std::uint64_t k = now_ == 0 ? l.ran : firstAfter(l, now_ - 1);
  for (; whenOf(l, k) == now_; ++k) {
    if (locate(line, k) < log_.size()) continue;
    if (running == nullptr) break;
    const std::uint64_t s = seqOf(line, k);
    const bool ran = s != running->seq
                         ? s < running->seq
                         : running->tie == kEventTie ||
                               predBefore(predOf(line, k), decode(running->tie));
    if (!ran) break;
  }
  return k;
}

void EventQueue::takePutBack(const Node& n) {
  const auto it = std::find(putBacks_.begin(), putBacks_.end(), &n);
  assert(it != putBacks_.end() && "a loop event ran that was never put back");
  *it = putBacks_.back();
  putBacks_.pop_back();
}

void EventQueue::logRun(const Node& n) {
  log_.push_back(LogEntry{keyOf(n), seq_});
  if (parked_.empty() && putBacks_.empty()) {
    clearLog();
  } else if (log_.size() == kLogCapacity) {
    rebase();
  }
}

void EventQueue::rebase() {
  // Move every parked loop's anchor to its pending event, and rank those
  // events and the pending put-back events by their places: every tie then
  // stands for a predecessor before the log's new start.
  struct Pending {
    SpinLoopState line;
    Pred pred;
    SpinLoop* loop;
    Node* node;
  };
  std::vector<Pending> pending;
  pending.reserve(parked_.size() + putBacks_.size());
  for (SpinLoop* loop : parked_) {
    const SpinLoopState& l = lines_[loop->line_];
    const std::uint64_t k = firstPending(loop->line_, nullptr);
    SpinLoopState anchor = l;
    anchor.phase = phaseOf(l, k);
    anchor.when = whenOf(l, k);
    anchor.seq = seqOf(loop->line_, k);
    anchor.ran = k;
    pending.push_back({anchor, predOf(loop->line_, k), loop, nullptr});
  }
  for (Node* n : putBacks_) {
    SpinLoopState event;
    event.when = n->when;
    event.seq = n->seq;
    pending.push_back({event, decode(n->tie), nullptr, n});
  }
  std::sort(pending.begin(), pending.end(), [this](const Pending& a, const Pending& b) {
    if (a.line.when != b.line.when) return a.line.when < b.line.when;
    if (a.line.seq != b.line.seq) return a.line.seq < b.line.seq;
    return predBefore(a.pred, b.pred);
  });
  clearLog();
  for (std::size_t rank = 0; rank < pending.size(); ++rank) {
    Pending& p = pending[rank];
    if (p.node != nullptr) {
      p.node->tie = rank;
      continue;
    }
    p.line.tie = rank;
    p.loop->line_ = static_cast<LineId>(lines_.size());
    lines_.push_back(p.line);
  }
}

void EventQueue::insertInOrder(Node* n) {
  // A woken loop's event is due within kParkedDelayLimit cycles: in the ring.
  assert(n->when >= now_ && n->when - now_ < kParkedDelayLimit);
  const std::size_t idx = n->when & kMask;
  Bucket& b = ring_[idx];
  Node* prev = nullptr;
  Node* cur = b.head;
  while (cur != nullptr &&
         (cur->seq != n->seq ? cur->seq < n->seq : tieBefore(cur->tie, n->tie))) {
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

bool EventQueue::parkedLoopPassesDeadline() {
  // A ring event is due within kHorizon cycles: nothing to check unless the
  // deadline falls inside that window or only overflow events are left.
  if (ringSize_ != 0 && deadline_ >= now_ + kHorizon) return false;
  const Node* next = nullptr;
  if (size_ != 0) {
    next = ringSize_ != 0 ? ring_[earliestRingIndex()].head : overflow_.front();
    if (next->when <= deadline_) return false;
  } else if (deadline_ == kNever) {
    throw std::logic_error(
        "EventQueue: drained with parked spin loops and no deadline to end the run");
  }
  assert(passed_ == nullptr && "the run ended at a parked loop's event");
  // Each loop's first event past the deadline; the earliest ends the run if
  // it comes before the next queued event.
  const SpinLoop* first = nullptr;
  std::uint64_t firstAt = 0;
  for (const SpinLoop* loop : parked_) {
    const LineId line = loop->line_;
    const std::uint64_t k = firstAfter(lines_[line], deadline_);
    if (next != nullptr) {
      const Cycle w = whenOf(lines_[line], k);
      if (w > next->when) continue;
      if (w == next->when) {
        const std::uint64_t s = seqOf(line, k);
        const bool earlier = s != next->seq
                                 ? s < next->seq
                                 : next->tie == kEventTie ||
                                       predBefore(predOf(line, k), decode(next->tie));
        if (!earlier) continue;
      }
    }
    if (first == nullptr || loopBefore(line, k, first->line_, firstAt)) {
      first = loop;
      firstAt = k;
    }
  }
  if (first == nullptr) return false;
  passed_ = first;
  passedAt_ = firstAt;
  passDeadline_ = deadline_;
  now_ = whenOf(lines_[first->line_], firstAt);
  return true;
}

void EventQueue::settleParked() {
  if (parked_.empty()) return;
  // The loop events run by the end: those before the last event run, or
  // those up to the deadline and the one that passed it.
  for (SpinLoop* loop : parked_) {
    const SpinLoopState& l = lines_[loop->line_];
    const std::uint64_t k = passed_ == nullptr ? firstPending(loop->line_, nullptr)
                            : loop == passed_  ? passedAt_ + 1
                                               : firstAfter(l, passDeadline_);
    loop->phase = phaseOf(l, k);
    loop->when = whenOf(l, k);
    loop->ran = k;
  }
  for (SpinLoop* loop : parked_) loop->settle();
}

bool EventQueue::park(SpinLoop& loop, unsigned phase, Cycle delay) {
  assert(!loop.parked && loop.phases > 0 && loop.phases <= SpinLoop::kMaxPhases);
  assert(running_ != nullptr && "loops park only from inside an event");
  if (oracle_ != nullptr || delay >= kParkedDelayLimit) return false;
  Cycle period = 0;
  for (unsigned p = 0; p < loop.phases; ++p) {
    if (loop.delay[p] >= kParkedDelayLimit) return false;
    period += loop.delay[p];
  }
  if (period == 0) return false;  // it never leaves its cycle
  if (parked_.empty() && putBacks_.empty()) {
    // Nothing depends on what the log holds.
    clearLog();
    if (log_.capacity() == 0) {
      log_.reserve(kLogCapacity);
      placed_.assign(std::size_t{1} << kPlacedBits, Placed{0, 0, 0});
    }
  }
  loop.phase = phase;
  loop.when = now_ + delay;
  loop.seq = seq_;
  loop.tie = addDesc(PredDesc{PredDesc::kReal, log_.size(), parks_++});
  loop.ran = 0;
  loop.parked = true;
  loop.line_ = static_cast<LineId>(lines_.size());
  lines_.push_back(loop);
  parked_.push_back(&loop);
  return true;
}

void EventQueue::dropParked(SpinLoop& loop) {
  const auto it = std::find(parked_.begin(), parked_.end(), &loop);
  assert(it != parked_.end() && "parked loop missing from the parked set");
  *it = parked_.back();
  parked_.pop_back();
  loop.parked = false;
}

void EventQueue::unpark(SpinLoop& loop) {
  assert(loop.parked && running_ != nullptr);
  const Key present = keyOf(*running_);
  const LineId line = loop.line_;
  const SpinLoopState& l = lines_[line];
  const std::uint64_t k = firstPending(line, &present);
  loop.phase = phaseOf(l, k);
  loop.when = whenOf(l, k);
  loop.seq = seqOf(line, k);
  // The put-back event's tie stands for its predecessor; the woken loop's
  // line stays in lines_ for it.
  loop.tie = k == l.ran ? l.tie : addDesc(PredDesc{line, k - 1, 0});
  loop.ran = k;
  dropParked(loop);
}

void EventQueue::forget(SpinLoop& loop) {
  if (!loop.parked) return;
  dropParked(loop);
  if (parked_.empty() && putBacks_.empty()) clearLog();
}

}  // namespace lktm::sim
