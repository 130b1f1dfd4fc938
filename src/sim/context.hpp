// Per-run simulation context: one object that owns everything a single
// deterministic simulation needs — the engine (event queue + watchdog), an
// RNG, and the typed object pools that back the message/packet hot paths.
// Components take a SimContext& instead of a bare Engine& so a sweep worker
// can build hundreds of systems against one context: beginRun() resets
// logical state (clock, seq numbers, diagnostics, RNG) while every pool and
// event-node slab keeps its memory, making steady-state simulation
// allocation-free. SimContexts share nothing; one per host thread.
//
// Nothing draws from the context RNG: every simulated draw comes from the
// workload generator's per-thread streams, seeded from the workload seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "sim/rng.hpp"
#include "stats/registry.hpp"

namespace lktm::sim {

class TraceSink;

namespace detail {

struct PoolHolderBase {
  virtual ~PoolHolderBase() = default;
  virtual std::size_t slabs() const = 0;
};

template <class T>
struct PoolHolder final : PoolHolderBase {
  Pool<T> pool;
  std::size_t slabs() const override { return pool.slabs(); }
};

std::size_t nextPoolTypeId();

template <class T>
std::size_t poolTypeId() {
  static const std::size_t id = nextPoolTypeId();
  return id;
}

}  // namespace detail

class SimContext {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ull;

  explicit SimContext(Cycle watchdogWindow = 4'000'000);

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  EventQueue& queue() { return engine_.queue(); }
  Cycle now() const { return engine_.now(); }
  Rng& rng() { return rng_; }

  /// Prepare for a fresh simulation run: reset the clock, event sequence
  /// numbers, watchdog state, diagnostics, and reseed the (undrawn) RNG.
  /// Pools and event slabs keep their memory so reuse across runs is
  /// allocation-free.
  void beginRun(Cycle watchdogWindow, std::uint64_t rngSeed = kDefaultSeed);

  /// The typed object pool for T, created on first use and owned by the
  /// context for its lifetime (e.g. pool<coh::Msg>() backs Network deliveries).
  template <class T>
  Pool<T>& pool() {
    const std::size_t id = detail::poolTypeId<T>();
    if (id >= pools_.size()) pools_.resize(id + 1);
    if (pools_[id] == nullptr) pools_[id] = std::make_unique<detail::PoolHolder<T>>();
    return static_cast<detail::PoolHolder<T>*>(pools_[id].get())->pool;
  }

  /// Total slabs across this context's pools (telemetry for tests/benches).
  std::size_t pooledSlabs() const;

  std::uint64_t runsStarted() const { return runsStarted_; }

  /// The run's stat registry. Components register their stats here at
  /// construction; beginRun() clears it so the next run's components
  /// re-register from scratch (no value leaks between sweep iterations).
  stats::StatRegistry& stats() { return stats_; }
  const stats::StatRegistry& stats() const { return stats_; }

  /// Optional event-trace sink (see sim/trace.hpp). Not owned; null unless a
  /// caller attached one. With no sink each instrumentation site costs one
  /// pointer test.
  void setTraceSink(TraceSink* sink) { traceSink_ = sink; }
  TraceSink* traceSink() const { return traceSink_; }

  /// Opaque verification tap slot. The coherence layer stores a coh::MsgTap*
  /// here (see coh::post) so the model checker can observe every message send
  /// and delivery; sim stays ignorant of the concrete type. Not owned, null
  /// in normal runs, and the hot path pays one pointer test when unset.
  void setVerifyTap(void* tap) { verifyTap_ = tap; }
  void* verifyTap() const { return verifyTap_; }

 private:
  Engine engine_;
  Rng rng_;
  std::vector<std::unique_ptr<detail::PoolHolderBase>> pools_;
  std::uint64_t runsStarted_ = 0;
  void* verifyTap_ = nullptr;
  stats::StatRegistry stats_;
  TraceSink* traceSink_ = nullptr;
};

}  // namespace lktm::sim
