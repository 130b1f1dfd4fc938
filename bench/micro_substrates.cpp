// google-benchmark microbenchmarks of the simulator substrates: these gate
// the wall-clock cost of the figure sweeps (a full Fig 7 grid is ~400
// simulations), so substrate regressions show up here first.
#include <benchmark/benchmark.h>

#include <array>

#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "coherence/messages.hpp"
#include "core/wakeup_table.hpp"
#include "mem/cache_array.hpp"
#include "mem/mshr.hpp"
#include "mem/signature.hpp"
#include "noc/ideal.hpp"
#include "noc/mesh.hpp"
#include "sim/context.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "workloads/micro.hpp"

namespace {

using namespace lktm;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int sink = 0;
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule(static_cast<Cycle>(i % 97), [&sink] { ++sink; });
    }
    while (q.runOne()) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void BM_CacheArrayLookup(benchmark::State& state) {
  mem::CacheArray cache({32 * 1024, 4});
  sim::Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const LineAddr l = rng.below(4096);
    if (cache.find(l) == nullptr) {
      if (auto* w = cache.invalidWay(l)) cache.install(*w, l, mem::MesiState::S, {});
    }
  }
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const LineAddr l = rng.below(4096);
    hits += cache.find(l) != nullptr;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayLookup);

void BM_BloomSignature(benchmark::State& state) {
  mem::BloomSignature sig(static_cast<unsigned>(state.range(0)), 4);
  sim::Rng rng(9);
  for (int i = 0; i < 128; ++i) sig.insert(rng.next());
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += sig.mayContain(rng.next());
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomSignature)->Arg(1024)->Arg(2048)->Arg(8192);

void BM_MeshTraversal(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimContext ctx;
    noc::MeshNetwork net(ctx, {});
    int delivered = 0;
    sim::Rng rng(11);
    for (int i = 0; i < 256; ++i) {
      net.send(static_cast<noc::NodeId>(rng.below(64)),
               static_cast<noc::NodeId>(rng.below(64)), noc::kDataFlits,
               [&delivered] { ++delivered; });
    }
    ctx.queue().runUntilDrained(1'000'000);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MeshTraversal);

// ---- kernel group: steady-state cost of the pooled event/message hot path.
// These reuse one SimContext across iterations, which is how the sweep
// executor runs; after the first iteration warms the pools, the kernel
// allocates nothing (verified by tests/test_kernel.cpp's pool-reuse test).

void BM_KernelQueueSteadyState(benchmark::State& state) {
  sim::EventQueue q;
  int sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule(static_cast<Cycle>(i % 97), [&sink] { ++sink; });
    }
    while (q.runOne()) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelQueueSteadyState)->Arg(1024)->Arg(16384);

void BM_KernelMeshSteady(benchmark::State& state) {
  sim::SimContext ctx;
  noc::MeshNetwork net(ctx, {});
  sim::Rng rng(11);
  int delivered = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      net.send(static_cast<noc::NodeId>(rng.below(64)),
               static_cast<noc::NodeId>(rng.below(64)), noc::kDataFlits,
               [&delivered] { ++delivered; });
    }
    ctx.queue().runUntilDrained(1'000'000'000);
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_KernelMeshSteady);

struct NullSink final : coh::MsgSink {
  std::uint64_t received = 0;
  void onMessage(const coh::Msg&) override { ++received; }
};

void BM_KernelPooledMsgPost(benchmark::State& state) {
  sim::SimContext ctx;
  noc::IdealNetwork net(ctx, 3);
  NullSink sink;
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) {
      coh::Msg m{.type = coh::MsgType::DataE,
                 .line = static_cast<LineAddr>(i),
                 .hasData = true};
      coh::post(ctx, net, 0, 1, sink, std::move(m));
    }
    ctx.queue().runUntilDrained(1'000'000'000);
    benchmark::DoNotOptimize(sink.received);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_KernelPooledMsgPost);

void BM_KernelContextReuse(benchmark::State& state) {
  const auto sys = cfg::systemByName("LockillerTM");
  sim::SimContext ctx;
  for (auto _ : state) {
    cfg::RunConfig rc;
    rc.system = sys;
    rc.threads = 8;
    rc.runCoherenceChecker = false;
    const auto r = cfg::runSimulation(
        rc, [] { return wl::makeCounter(8, 2, 128); }, &ctx);
    benchmark::DoNotOptimize(r.cycles);
    if (!r.ok()) state.SkipWithError("simulation failed");
  }
}
BENCHMARK(BM_KernelContextReuse)->Unit(benchmark::kMillisecond);

// ---- coherence datapath group: per-message cost of the directory line
// tables, MSHR lifecycle, wakeup bookkeeping, and overflow signatures. These
// are the structures every L1 request walks, so they gate the protocol-side
// wall-clock the same way the kernel group gates the event/message kernel.

/// Scripted L1 endpoint that answers the directory immediately, so the
/// benchmark measures directory datapath cost rather than L1 logic.
struct AutoRespondL1 final : coh::MsgSink {
  coh::DirectoryController* dir = nullptr;
  CoreId id = 0;
  std::uint64_t handled = 0;

  void onMessage(const coh::Msg& m) override {
    ++handled;
    coh::Msg r;
    r.line = m.line;
    r.from = id;
    switch (m.type) {
      case coh::MsgType::DataE:
      case coh::MsgType::DataS:
        r.type = coh::MsgType::Unblock;
        break;
      case coh::MsgType::Inv:
        r.type = coh::MsgType::InvAck;
        break;
      case coh::MsgType::FwdGetS:
        r.type = coh::MsgType::FwdAck;
        r.keptCopy = true;
        break;
      case coh::MsgType::FwdGetX:
        r.type = coh::MsgType::FwdAck;
        r.keptCopy = false;
        break;
      default:
        return;  // PutAck / RejectResp / Wakeup need no answer
    }
    dir->onMessage(r);
  }
};

void BM_DirectoryRequestThroughput(benchmark::State& state) {
  constexpr unsigned kCores = 8;
  constexpr int kLines = 64;
  constexpr int kPasses = 8;
  sim::SimContext ctx;
  noc::IdealNetwork net(ctx, 1);
  mem::MainMemory memory;
  coh::DirectoryController dir(ctx, net, memory, coh::ProtocolParams{}, kCores);
  std::array<AutoRespondL1, kCores> l1s;
  for (CoreId c = 0; c < static_cast<CoreId>(kCores); ++c) {
    auto& l1 = l1s[static_cast<std::size_t>(c)];
    l1.dir = &dir;
    l1.id = c;
    dir.connectL1(c, &l1);
  }
  for (auto _ : state) {
    // Four read passes build sharer lists and forward chains; four exclusive
    // passes trigger Inv fan-out + ack collection and ownership migration.
    for (int p = 0; p < kPasses; ++p) {
      const CoreId c = p % kCores;
      const bool wantX = p >= kPasses / 2;
      for (int l = 0; l < kLines; ++l) {
        coh::Msg m;
        m.type = wantX ? coh::MsgType::GetX : coh::MsgType::GetS;
        m.line = static_cast<LineAddr>(l);
        m.from = c;
        m.req.core = c;
        m.req.wantsExclusive = wantX;
        dir.onMessage(m);
      }
    }
    ctx.queue().runUntilDrained(1'000'000'000);
    benchmark::DoNotOptimize(l1s[0].handled);
  }
  state.SetItemsProcessed(state.iterations() * kPasses * kLines);
}
BENCHMARK(BM_DirectoryRequestThroughput);

void BM_MshrAllocRetire(benchmark::State& state) {
  mem::MshrFile mshr(8);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (LineAddr l = 0; l < 8; ++l) {
      auto& e = mshr.allocate(l * 977 + 13);
      e.isWrite = (l & 1) != 0;
    }
    mshr.forEach([&](mem::MshrEntry& e) { sink += e.line; });
    for (LineAddr l = 0; l < 8; ++l) {
      sink += mshr.find(l * 977 + 13) != nullptr;
    }
    for (LineAddr l = 0; l < 8; ++l) mshr.release(l * 977 + 13);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MshrAllocRetire);

void BM_WakeupDrain(benchmark::State& state) {
  core::WakeupTable table;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      table.record(static_cast<LineAddr>(i & 15) * 31, i % 7);
    }
    for (const auto& e : table.drainAll()) {
      sink += e.line + static_cast<std::uint64_t>(e.core);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WakeupDrain);

void BM_SignatureInsertQuery(benchmark::State& state) {
  mem::BloomSignature sig(2048, 4);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    sig.clear();
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      sig.insert(x >> 16);
    }
    std::uint64_t y = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < 64; ++i) {  // guaranteed hits
      y = y * 6364136223846793005ull + 1442695040888963407ull;
      hits += sig.mayContain(y >> 16);
    }
    for (int i = 0; i < 192; ++i) {  // mostly misses
      y = y * 6364136223846793005ull + 1442695040888963407ull;
      hits += sig.mayContain(y >> 16);
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * 320);
}
BENCHMARK(BM_SignatureInsertQuery);

void BM_FullSimulationCounter(benchmark::State& state) {
  const auto sys = cfg::systemByName(state.range(0) == 0 ? "CGL" : "LockillerTM");
  for (auto _ : state) {
    cfg::RunConfig rc;
    rc.system = sys;
    rc.threads = 8;
    rc.runCoherenceChecker = false;
    const auto r = cfg::runSimulation(
        rc, [] { return wl::makeCounter(8, 2, 128); });
    benchmark::DoNotOptimize(r.cycles);
    if (!r.ok()) state.SkipWithError("simulation failed");
  }
}
BENCHMARK(BM_FullSimulationCounter)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FullSimulationStamp(benchmark::State& state) {
  const auto sys = cfg::systemByName("LockillerTM");
  for (auto _ : state) {
    cfg::RunConfig rc;
    rc.system = sys;
    rc.threads = 8;
    rc.runCoherenceChecker = false;
    const auto r =
        cfg::runSimulation(rc, [] { return cfg::makeJobWorkload("vacation+", 11); });
    benchmark::DoNotOptimize(r.cycles);
    if (!r.ok()) state.SkipWithError("simulation failed");
  }
}
BENCHMARK(BM_FullSimulationStamp)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
