// Kernel regression tests for the pooled calendar-queue event substrate:
//  * a 10k-event replay that locks the calendar queue's total order to the
//    reference binary-heap semantics ((cycle, insertion-seq) ascending),
//    including horizon-crossing and overflow-migration tie-break cases, and
//    again with parked spin loops that the reference runs as events;
//  * pool-reuse proofs that steady-state simulation performs no event-node,
//    message-pool, or callable heap allocations after warm-up (kstats
//    telemetry hooks);
//  * SimContext reuse determinism: the same run in a recycled context is
//    bit-identical to a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "coherence/messages.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "noc/ideal.hpp"
#include "noc/mesh.hpp"
#include "sim/context.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel_stats.hpp"
#include "workloads/micro.hpp"

namespace lktm {
namespace {

// ---------------------------------------------------------------------------
// Determinism replay: drive the production EventQueue and a reference
// binary-heap queue (the seed implementation's semantics) with an identical
// self-expanding event trace and require the same execution order.

/// Splitmix-style hash: deterministic per-event randomness without an RNG
/// object that the two queue drivers would have to share.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Delay distribution exercising every queue path: same-cycle (0), near-ring,
/// horizon-straddling, and deep-overflow delays (up to 16x the horizon).
Cycle traceDelay(std::uint64_t h) {
  switch (h % 8) {
    case 0: return 0;
    case 1: return 1 + (h >> 8) % 7;
    case 2: return (h >> 8) % 97;
    case 3: return (h >> 8) % 500;
    case 4: return sim::EventQueue::kHorizon - 2 + (h >> 8) % 5;
    case 5: return sim::EventQueue::kHorizon + (h >> 8) % 300;
    case 6: return (h >> 8) % 65536;
    default: return 3;
  }
}

/// Trace logic shared by both drivers: record the event, then (budget
/// permitting) spawn 0-2 follow-up events whose ids/delays derive only from
/// the parent id — identical expansion regardless of the queue under test.
template <class ScheduleFn>
void onTraceEvent(std::uint64_t id, std::vector<std::uint64_t>& order, int& budget, ScheduleFn&& sched) {
  order.push_back(id);
  const std::uint64_t h = mix(id);
  const int children = static_cast<int>(h % 3);
  for (int c = 0; c < children; ++c) {
    if (budget <= 0) return;
    --budget;
    const std::uint64_t hc = mix(h + static_cast<std::uint64_t>(c) + 1);
    sched(traceDelay(hc), id * 3 + static_cast<std::uint64_t>(c) + 1000);
  }
}

/// Reference implementation: the seed's std::priority_queue ordered on
/// (cycle, insertion seq) — smallest first, FIFO within a cycle.
struct ReferenceHeapQueue {
  struct Ev {
    Cycle when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> pq;
  Cycle now = 0;
  std::uint64_t seq = 0;

  void schedule(Cycle delay, std::uint64_t id) { pq.push(Ev{now + delay, seq++, id}); }

  std::vector<std::uint64_t> run(int seedEvents, int totalBudget) {
    std::vector<std::uint64_t> order;
    int budget = totalBudget;
    for (int i = 0; i < seedEvents; ++i) {
      schedule(traceDelay(mix(static_cast<std::uint64_t>(i) * 77)),
               static_cast<std::uint64_t>(i));
    }
    while (!pq.empty()) {
      const Ev e = pq.top();
      pq.pop();
      now = e.when;
      onTraceEvent(e.id, order, budget,
                   [this](Cycle d, std::uint64_t cid) { schedule(d, cid); });
    }
    return order;
  }
};

std::vector<std::uint64_t> runCalendarTrace(int seedEvents, int totalBudget) {
  sim::EventQueue q;
  std::vector<std::uint64_t> order;
  int budget = totalBudget;
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    onTraceEvent(id, order, budget, [&](Cycle d, std::uint64_t cid) {
      q.schedule(d, [&fire, cid] { fire(cid); });
    });
  };
  for (int i = 0; i < seedEvents; ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(i);
    q.schedule(traceDelay(mix(id * 77)), [&fire, id] { fire(id); });
  }
  while (q.runOne()) {
  }
  return order;
}

TEST(KernelDeterminism, CalendarQueueReplaysReferenceHeapOrder) {
  // ~10k executed events: 2048 seeds + 8000 spawn budget.
  ReferenceHeapQueue ref;
  const std::vector<std::uint64_t> expect = ref.run(2048, 8000);
  const std::vector<std::uint64_t> got = runCalendarTrace(2048, 8000);
  ASSERT_GE(expect.size(), 10000u);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(got[i], expect[i]) << "divergence at event " << i;
  }
}

// ---------------------------------------------------------------------------
// Parked spin loops: the same trace plus three loops of events. The reference
// heap runs every loop event; the calendar queue parks each loop after one
// phase and wakes it when a trace event touches it. Every trace event, and
// every touch with the loop's event count and pending phase, must come out
// identically, and so must the event that first passes the deadline. Loops 0
// and 1 have one shape and start side by side, so their parked events share
// (cycle, seq) and only the tie orders them; loop 2 has a zero-delay phase.
// Some 10k events run while loops are parked, so the queue's log of them
// fills and is replayed several times.

struct LoopShape {
  std::vector<Cycle> delay;  ///< phase i's event schedules phase i+1 this much later
  unsigned parkPhase;        ///< the calendar queue parks the loop after this phase
  Cycle start;
};

struct LoopSet {
  std::vector<LoopShape> shapes;
  /// The loops trace event `id` touches, in the order it touches them.
  std::vector<std::size_t> (*touched)(std::uint64_t id);
};

const LoopSet& threeLoops() {
  static const LoopSet set{
      {
          {{2, 1, 3, 1, 1}, 4, 5},
          {{2, 1, 3, 1, 1}, 4, 5},
          {{0, 5, 1}, 0, 9},
      },
      [](std::uint64_t id) -> std::vector<std::size_t> {
        const std::uint64_t h = mix(id ^ 0x5bd1e995u);
        if (h % 4 != 0) return {};
        return {static_cast<std::size_t>((h >> 8) % 3)};
      },
  };
  return set;
}

struct LoopTrace {
  std::vector<std::uint64_t> order;    ///< trace event ids in run order
  std::vector<std::uint64_t> touches;  ///< (id, loop, loop events so far, pending phase)...
  std::vector<std::uint64_t> loopEvents;
  std::vector<unsigned> pendingPhase;
  Cycle end = 0;  ///< the cycle of the first event past the deadline
};

LoopTrace runReferenceWithLoops(int seedEvents, int totalBudget, Cycle deadline,
                                const LoopSet& set = threeLoops()) {
  struct Ev {
    Cycle when;
    std::uint64_t seq;
    std::uint64_t id;
    int loop;  ///< -1: a trace event
    unsigned phase;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> pq;
  Cycle now = 0;
  std::uint64_t seq = 0;
  LoopTrace out;
  const auto& shapes = set.shapes;
  out.loopEvents.assign(shapes.size(), 0);
  out.pendingPhase.assign(shapes.size(), 0);
  int budget = totalBudget;
  for (int i = 0; i < seedEvents; ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(i);
    pq.push(Ev{traceDelay(mix(id * 77)), seq++, id, -1, 0});
  }
  for (std::size_t l = 0; l < shapes.size(); ++l) {
    pq.push(Ev{shapes[l].start, seq++, 0, static_cast<int>(l), 0});
  }
  while (!pq.empty()) {
    const Ev e = pq.top();
    pq.pop();
    now = e.when;
    if (e.loop >= 0) {
      const auto l = static_cast<std::size_t>(e.loop);
      const unsigned next = (e.phase + 1) % static_cast<unsigned>(shapes[l].delay.size());
      ++out.loopEvents[l];
      out.pendingPhase[l] = next;
      pq.push(Ev{now + shapes[l].delay[e.phase], seq++, 0, e.loop, next});
    } else {
      for (const std::size_t l : set.touched(e.id)) {
        out.touches.insert(out.touches.end(), {e.id, l, out.loopEvents[l], out.pendingPhase[l]});
      }
      onTraceEvent(e.id, out.order, budget, [&](Cycle d, std::uint64_t cid) {
        pq.push(Ev{now + d, seq++, cid, -1, 0});
      });
    }
    if (now > deadline) break;
  }
  out.end = now;
  return out;
}

struct QueueLoop final : sim::SpinLoop {
  std::uint64_t events = 0;  ///< loop events run by the queue or credited at unpark
  unsigned pending = 0;      ///< phase of the pending event while not parked
  bool settled = false;
  void settle() override { settled = true; }
};

LoopTrace runCalendarWithLoops(int seedEvents, int totalBudget, Cycle deadline,
                               std::uint64_t* wakes, const LoopSet& set = threeLoops()) {
  sim::EventQueue q;
  LoopTrace out;
  const auto& shapes = set.shapes;
  std::vector<QueueLoop> loops(shapes.size());
  for (std::size_t l = 0; l < shapes.size(); ++l) {
    loops[l].phases = static_cast<unsigned>(shapes[l].delay.size());
    for (unsigned p = 0; p < loops[l].phases; ++p) loops[l].delay[p] = shapes[l].delay[p];
  }
  int budget = totalBudget;
  std::function<void(std::size_t, unsigned)> fireLoop = [&](std::size_t l, unsigned phase) {
    QueueLoop& loop = loops[l];
    ++loop.events;
    const unsigned next = (phase + 1) % loop.phases;
    loop.pending = next;
    if (phase == shapes[l].parkPhase && q.park(loop, next, loop.delay[phase])) return;
    q.schedule(loop.delay[phase], [&fireLoop, l, next] { fireLoop(l, next); });
  };
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    for (const std::size_t l : set.touched(id)) {
      QueueLoop& loop = loops[l];
      if (loop.parked) {
        q.unpark(loop);
        ++*wakes;
        loop.events += loop.ran;
        loop.pending = loop.phase;
        q.scheduleUnparked(loop, [&fireLoop, l, phase = loop.phase] { fireLoop(l, phase); });
      }
      out.touches.insert(out.touches.end(), {id, l, loop.events, loop.pending});
    }
    onTraceEvent(id, out.order, budget, [&](Cycle d, std::uint64_t cid) {
      q.schedule(d, [&fire, cid] { fire(cid); });
    });
  };
  for (int i = 0; i < seedEvents; ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(i);
    q.schedule(traceDelay(mix(id * 77)), [&fire, id] { fire(id); });
  }
  for (std::size_t l = 0; l < shapes.size(); ++l) {
    q.schedule(shapes[l].start, [&fireLoop, l] { fireLoop(l, 0); });
  }
  q.setDeadline(deadline);
  while (q.runOne()) {
    if (q.now() > deadline) break;
  }
  q.settleParked();
  for (QueueLoop& loop : loops) {
    EXPECT_EQ(loop.settled, loop.parked);
    out.loopEvents.push_back(loop.events + (loop.parked ? loop.ran : 0));
    out.pendingPhase.push_back(loop.parked ? loop.phase : loop.pending);
  }
  out.end = q.now();
  return out;
}

TEST(KernelDeterminism, ParkedLoopsKeepTheReferenceHeapOrder) {
  ReferenceHeapQueue plain;
  plain.run(2048, 8000);
  const Cycle deadline = plain.now + 500;  // past the trace's last event
  const LoopTrace expect = runReferenceWithLoops(2048, 8000, deadline);
  std::uint64_t wakes = 0;
  const LoopTrace got = runCalendarWithLoops(2048, 8000, deadline, &wakes);
  ASSERT_GE(expect.order.size(), 10000u);
  EXPECT_GE(wakes, 500u);
  ASSERT_EQ(got.order.size(), expect.order.size());
  for (std::size_t i = 0; i < expect.order.size(); ++i) {
    ASSERT_EQ(got.order[i], expect.order[i]) << "divergence at trace event " << i;
  }
  ASSERT_EQ(got.touches.size(), expect.touches.size());
  for (std::size_t i = 0; i < expect.touches.size(); i += 4) {
    ASSERT_EQ(std::vector<std::uint64_t>(got.touches.begin() + i, got.touches.begin() + i + 4),
              std::vector<std::uint64_t>(expect.touches.begin() + i,
                                         expect.touches.begin() + i + 4))
        << "touch " << i / 4 << " (id, loop, loop events, pending phase)";
  }
  EXPECT_EQ(got.loopEvents, expect.loopEvents);
  EXPECT_EQ(got.pendingPhase, expect.pendingPhase);
  EXPECT_EQ(got.end, expect.end);
}

// Ten loops of the MCS wait's shape. Loops 0-3 start in one cycle and are
// woken together, so they run in lockstep: their events share (cycle, seq)
// and only the tie orders them. Loops 4-7 start at staggered phases. Loops 8
// and 9 start with 0-3 but are woken only a few times, so each stays parked
// across more than one full log of 2048 events.
const LoopSet& mcsLoops() {
  static const LoopSet set{
      {
          {{8, 1, 2, 1, 1}, 4, 5},
          {{8, 1, 2, 1, 1}, 4, 5},
          {{8, 1, 2, 1, 1}, 4, 5},
          {{8, 1, 2, 1, 1}, 4, 5},
          {{8, 1, 2, 1, 1}, 4, 6},
          {{8, 1, 2, 1, 1}, 1, 7},
          {{8, 1, 2, 1, 1}, 2, 9},
          {{8, 1, 2, 1, 1}, 4, 12},
          {{8, 1, 2, 1, 1}, 4, 5},
          {{8, 1, 2, 1, 1}, 4, 5},
      },
      [](std::uint64_t id) -> std::vector<std::size_t> {
        const std::uint64_t h = mix(id ^ 0x2545f491u);
        if (h % 1024 == 3) return {8, 9};
        switch (h % 8) {
          case 0: return {0, 1, 2, 3};
          case 1: return {4 + (h >> 8) % 4};
          case 2: return {(h >> 8) % 4, 4 + (h >> 12) % 4};
          default: return {};
        }
      },
  };
  return set;
}

TEST(KernelDeterminism, LockstepLoopsKeepTheReferenceHeapOrder) {
  ReferenceHeapQueue plain;
  plain.run(2048, 8000);
  // One deadline inside the trace, where a trace event or a loop event is the
  // first past it, and one past its end, where the queue drains first.
  for (const Cycle deadline : {plain.now / 2, plain.now + 500}) {
    const LoopTrace expect = runReferenceWithLoops(2048, 8000, deadline, mcsLoops());
    std::uint64_t wakes = 0;
    const LoopTrace got = runCalendarWithLoops(2048, 8000, deadline, &wakes, mcsLoops());
    ASSERT_GE(expect.order.size(), 5000u);
    EXPECT_GE(wakes, 500u);
    // Loop 8 is woken, and stays parked across more than 2048 trace events.
    std::size_t last = 0;
    std::size_t longest = 0;
    for (std::size_t i = 0; i < expect.touches.size(); i += 4) {
      if (expect.touches[i + 1] != 8) continue;
      const auto at = static_cast<std::size_t>(
          std::find(expect.order.begin(), expect.order.end(), expect.touches[i]) -
          expect.order.begin());
      longest = std::max(longest, at - last);
      last = at;
    }
    EXPECT_GT(longest, 2048u);
    ASSERT_EQ(got.order, expect.order) << "deadline " << deadline;
    ASSERT_EQ(got.touches, expect.touches) << "deadline " << deadline;
    EXPECT_EQ(got.loopEvents, expect.loopEvents) << "deadline " << deadline;
    EXPECT_EQ(got.pendingPhase, expect.pendingPhase) << "deadline " << deadline;
    EXPECT_EQ(got.end, expect.end) << "deadline " << deadline;
  }
}

TEST(KernelQueue, TiedLoopEventsKeepTheOrderOfTheirPredecessors) {
  // Loop a (one phase, every 2 cycles) parks at cycle 1; at cycle 6 event x
  // parks loop b, due at 7. Nothing was inserted in between, so both loops'
  // events at 7 have the same place (7, A). Unparked, a's event at 7 came
  // from its event at 5, which ran before x: a runs first. This holds only
  // if b's park first runs a's events up to x.
  sim::EventQueue q;
  std::vector<QueueLoop> loops(2);
  for (QueueLoop& loop : loops) {
    loop.phases = 1;
    loop.delay[0] = 2;
  }
  std::vector<int> order;
  q.schedule(1, [&] { ASSERT_TRUE(q.park(loops[0], 0, 2)); });
  q.schedule(6, [&] { ASSERT_TRUE(q.park(loops[1], 0, 1)); });
  q.schedule(6, [&] {
    for (int l : {1, 0}) {
      QueueLoop& loop = loops[static_cast<std::size_t>(l)];
      q.unpark(loop);
      EXPECT_EQ(loop.when, 7u);
      q.scheduleUnparked(loop, [&order, l] { order.push_back(l); });
    }
  });
  while (q.runOne()) {
  }
  EXPECT_EQ(loops[0].ran, 2u);  // its events at 3 and 5
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(KernelQueue, DrainedQueueEndsAtTheParkedLoopsFirstEventPastTheDeadline) {
  // Two loops parked in one cycle, then nothing else: the run ends where the
  // unparked loops' first event past the deadline would have run, with the
  // loops brought up to that event.
  sim::EventQueue q;
  std::vector<QueueLoop> loops(2);
  for (QueueLoop& loop : loops) {
    loop.phases = 2;
    loop.delay[0] = 3;
    loop.delay[1] = 4;
  }
  q.schedule(1, [&] { ASSERT_TRUE(q.park(loops[0], 0, 1)); });
  q.schedule(1, [&] { ASSERT_TRUE(q.park(loops[1], 1, 1)); });
  q.setDeadline(20);
  ASSERT_TRUE(q.runOne());
  ASSERT_TRUE(q.runOne());
  ASSERT_TRUE(q.runOne());  // no event left: a loop event passes the deadline
  q.settleParked();
  // Loop 0 runs at 2, 5, 9, 12, 16, 19, 23; loop 1 at 2, 6, 9, 13, 16, 20,
  // 23. Both reach 23 first past 20; loop 0's event there came from 19 and
  // loop 1's from 20, so loop 0's runs first and ends the run.
  EXPECT_EQ(q.now(), 23u);
  EXPECT_EQ(loops[0].ran, 7u);
  EXPECT_EQ(loops[1].ran, 6u);
  EXPECT_TRUE(loops[0].settled && loops[1].settled);
}

// ---------------------------------------------------------------------------
// Pool reuse: after a warm-up run, repeating identical work in the same
// SimContext must not allocate event slabs, pool slabs, or heap callables.

struct CountSink final : coh::MsgSink {
  std::uint64_t received = 0;
  void onMessage(const coh::Msg&) override { ++received; }
};

TEST(KernelPools, MessageTrafficIsAllocationFreeAfterWarmup) {
  sim::SimContext ctx;
  CountSink sink;
  noc::IdealNetwork net(ctx, 3);
  auto burst = [&] {
    ctx.beginRun(1'000'000);
    for (int i = 0; i < 256; ++i) {
      coh::Msg m{.type = coh::MsgType::DataE,
                 .line = static_cast<LineAddr>(i),
                 .hasData = true};
      coh::post(ctx, net, 0, 1, sink, std::move(m));
    }
    ctx.queue().runUntilDrained(1'000'000'000);
  };
  burst();  // warm-up populates the Msg pool and event slabs
  const auto before = sim::kstats::snapshot();
  burst();
  burst();
  const auto after = sim::kstats::snapshot();
  EXPECT_EQ(after.heapCallables, before.heapCallables);
  EXPECT_EQ(after.poolSlabs, before.poolSlabs);
  EXPECT_EQ(after.queueSlabs, before.queueSlabs);
  EXPECT_EQ(sink.received, 3u * 256u);
}

TEST(KernelPools, FullSimulationIsAllocationFreeAfterWarmup) {
  sim::SimContext ctx;
  auto simulate = [&] {
    cfg::RunConfig rc;
    rc.system = cfg::systemByName("LockillerTM");
    rc.threads = 4;
    rc.runCoherenceChecker = false;
    return cfg::runSimulation(rc, [] { return wl::makeCounter(4, 2, 64); }, &ctx);
  };
  ASSERT_TRUE(simulate().ok());  // warm-up
  const auto before = sim::kstats::snapshot();
  ASSERT_TRUE(simulate().ok());
  ASSERT_TRUE(simulate().ok());
  const auto after = sim::kstats::snapshot();
  // The kernel hot path (event nodes, pooled messages/packets, inline
  // callables) must be memory-steady across identical back-to-back runs.
  EXPECT_EQ(after.queueSlabs, before.queueSlabs);
  EXPECT_EQ(after.poolSlabs, before.poolSlabs);
  EXPECT_EQ(after.heapCallables, before.heapCallables);
}

// ---------------------------------------------------------------------------
// In-place invocation: runOne calls the action inside its node and returns
// the node to the free list afterwards, on the throwing path too.

TEST(KernelQueue, ThrowingActionReturnsItsNode) {
  sim::EventQueue q;
  int ran = 0;
  q.schedule(1, [&] { ++ran; });  // warm-up allocates the first slab
  ASSERT_TRUE(q.runOne());
  const std::size_t slabs = q.slabsAllocated();
  const auto before = sim::kstats::snapshot();
  // Far more throws than one slab holds: a leaked node per throw would force
  // new slabs.
  for (int i = 0; i < 4 * 256; ++i) {
    q.schedule(1, [] { throw std::runtime_error("action failed"); });
    q.schedule(1, [&] { ++ran; });
    EXPECT_THROW(q.runOne(), std::runtime_error);
    EXPECT_EQ(q.pending(), 1u);
    ASSERT_TRUE(q.runOne());
    EXPECT_EQ(q.pending(), 0u);
  }
  EXPECT_EQ(ran, 1 + 4 * 256);
  EXPECT_EQ(q.slabsAllocated(), slabs);
  EXPECT_EQ(sim::kstats::snapshot().queueSlabs, before.queueSlabs);
}

TEST(KernelQueue, ZeroDelayFromRunningActionRunsAfterPendingSameCycle) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] {
    order.push_back(0);
    // Scheduled while event 0 still occupies its node: it must queue behind
    // events 1 and 2, which are already pending for this cycle.
    q.schedule(0, [&] {
      order.push_back(3);
      q.schedule(0, [&] { order.push_back(4); });
    });
  });
  q.schedule(1, [&] { order.push_back(1); });
  q.schedule(1, [&] { order.push_back(2); });
  while (q.runOne()) EXPECT_EQ(q.now(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Context reuse determinism: a recycled SimContext reproduces a fresh
// context's results exactly (beginRun resets all logical state).

TEST(KernelContext, ReusedContextMatchesFreshRun) {
  auto simulate = [](sim::SimContext* ctx) {
    cfg::RunConfig rc;
    rc.system = cfg::systemByName("LockillerTM");
    rc.threads = 8;
    rc.runCoherenceChecker = false;
    return cfg::runSimulation(rc, [] { return cfg::makeJobWorkload("intruder", 11); }, ctx);
  };
  const auto fresh = simulate(nullptr);
  sim::SimContext ctx;
  simulate(&ctx);  // dirty the context with a first run
  const auto reused = simulate(&ctx);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(fresh.cycles, reused.cycles);
  EXPECT_EQ(fresh.htmCommits(), reused.htmCommits());
  EXPECT_EQ(fresh.lockCommits(), reused.lockCommits());
  EXPECT_EQ(fresh.aborts(), reused.aborts());
  EXPECT_EQ(fresh.messages(), reused.messages());
}

TEST(KernelContext, PoolsSurviveBeginRun) {
  sim::SimContext ctx;
  auto& msgs = ctx.pool<coh::Msg>();
  coh::Msg* a = msgs.acquire();
  msgs.recycle(a);
  const std::size_t slabs = ctx.pooledSlabs();
  EXPECT_GT(slabs, 0u);
  ctx.beginRun(1000);
  EXPECT_EQ(ctx.pooledSlabs(), slabs);  // memory retained across runs
  EXPECT_EQ(&ctx.pool<coh::Msg>(), &msgs);
  EXPECT_EQ(ctx.runsStarted(), 1u);
}

}  // namespace
}  // namespace lktm
