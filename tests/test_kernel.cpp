// Kernel regression tests for the pooled calendar-queue event substrate:
//  * a 10k-event replay that locks the calendar queue's total order to the
//    reference binary-heap semantics ((cycle, insertion-seq) ascending),
//    including horizon-crossing and overflow-migration tie-break cases;
//  * pool-reuse proofs that steady-state simulation performs no event-node,
//    message-pool, or callable heap allocations after warm-up (kstats
//    telemetry hooks);
//  * SimContext reuse determinism: the same run in a recycled context is
//    bit-identical to a fresh one.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "coherence/messages.hpp"
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
    return cfg::runSimulation(rc, [] { return wl::makeStamp("intruder"); }, ctx);
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
