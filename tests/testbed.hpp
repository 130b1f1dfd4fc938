// Shared test scaffolding: a coh::MemorySystem (L1s + directory + mesh)
// driven directly at the L1 CPU port, without full CPUs. Lets protocol and
// HTM tests issue single operations and observe every intermediate state.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coherence/memory_system.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"

namespace lktm::test {

/// The Table I memory system with two running cores unless a test says
/// otherwise.
using TestSystemOptions = coh::MemorySystemParams;

class TestSystem {
 public:
  explicit TestSystem(TestSystemOptions opt = {})
      : ports_(opt.cores), sys_(ctx_, opt) {
    for (unsigned i = 0; i < opt.cores; ++i) {
      sys_.l1(static_cast<CoreId>(i)).setCpuPort(ports_[i]);
    }
  }

  sim::SimContext& ctx() { return ctx_; }
  sim::Engine& engine() { return ctx_.engine(); }
  coh::MemorySystem& memSystem() { return sys_; }
  mem::MainMemory& memory() { return sys_.memory(); }
  coh::DirectoryController& dir() { return sys_.dir(); }
  coh::L1Controller& l1(CoreId c) { return sys_.l1(c); }
  std::vector<AbortCause>& aborts(CoreId c) { return ports_.at(static_cast<std::size_t>(c)).aborts; }
  unsigned switchedCount(CoreId c) const { return ports_.at(static_cast<std::size_t>(c)).switched; }
  void setPriority(CoreId c, std::uint64_t v) { ports_.at(static_cast<std::size_t>(c)).prio = v; }

  /// Run the event queue until `done` becomes true (or fail after budget).
  void runUntil(const bool& done, Cycle budget = 1'000'000) {
    const Cycle limit = engine().now() + budget;
    while (!done) {
      ASSERT_TRUE(engine().queue().runOne()) << "event queue drained before completion";
      ASSERT_LT(engine().now(), limit) << "operation did not complete in budget";
    }
  }

  /// Drain every outstanding event (protocol quiesces).
  void drain(Cycle budget = 1'000'000) { engine().queue().runUntilDrained(budget); }

  /// Advance simulated time by up to `n` cycles (for scenarios with polling
  /// retries that never let the queue drain).
  void runFor(Cycle n) {
    const Cycle limit = engine().now() + n;
    while (!engine().queue().empty() && engine().now() < limit) {
      engine().queue().runOne();
    }
  }

  // Blocking single-op helpers.
  std::uint64_t load(CoreId c, Addr a) {
    bool done = false;
    std::uint64_t out = 0;
    l1(c).load(a, [&](std::uint64_t v) {
      out = v;
      done = true;
    });
    runUntil(done);
    return out;
  }

  void store(CoreId c, Addr a, std::uint64_t v) {
    bool done = false;
    l1(c).store(a, v, [&] { done = true; });
    runUntil(done);
  }

  std::uint64_t cas(CoreId c, Addr a, std::uint64_t expect, std::uint64_t desired) {
    bool done = false;
    std::uint64_t out = 0;
    l1(c).cas(a, expect, desired, [&](std::uint64_t old) {
      out = old;
      done = true;
    });
    runUntil(done);
    return out;
  }

  void commit(CoreId c) {
    bool done = false;
    l1(c).txCommit([&] { done = true; });
    runUntil(done);
  }

  void hlBegin(CoreId c) {
    bool done = false;
    l1(c).hlBegin([&] { done = true; });
    runUntil(done);
  }

  void hlEnd(CoreId c) {
    bool done = false;
    l1(c).hlEnd([&] { done = true; });
    runUntil(done);
  }

  /// Issue an op that is expected to stall (rejected); returns a completion
  /// flag the test can poll.
  std::shared_ptr<bool> asyncLoad(CoreId c, Addr a) {
    auto done = std::make_shared<bool>(false);
    l1(c).load(a, [done](std::uint64_t) { *done = true; });
    return done;
  }
  std::shared_ptr<bool> asyncStore(CoreId c, Addr a, std::uint64_t v) {
    auto done = std::make_shared<bool>(false);
    l1(c).store(a, v, [done] { *done = true; });
    return done;
  }

  void expectCoherent() {
    drain();  // quiesce in-flight unblocks/writebacks before checking
    const auto v = sys_.check();
    EXPECT_TRUE(v.empty()) << v.size() << " violations, first: " << (v.empty() ? "" : v[0]);
  }

 private:
  /// Stands in for each core's CPU: a settable priority, and a record of the
  /// aborts and STL switches the L1 reports.
  struct RecordingPort final : coh::L1Controller::CpuPort {
    std::uint64_t prio = 0;
    std::vector<AbortCause> aborts;
    unsigned switched = 0;

    std::uint64_t priorityValue() const override { return prio; }
    void onAbort(AbortCause c) override { aborts.push_back(c); }
    void onSwitchedToStl() override { ++switched; }
  };

  sim::SimContext ctx_;
  std::vector<RecordingPort> ports_;
  coh::MemorySystem sys_;
};

/// Recovery-enabled policy shorthand.
inline core::TmPolicy recoveryPolicy(
    core::RejectAction action = core::RejectAction::WaitWakeup) {
  core::TmPolicy p;
  p.conflict = core::ConflictPolicy::Recovery;
  p.rejectAction = action;
  p.priority = core::PriorityKind::InstsBased;
  return p;
}

inline core::TmPolicy htmLockPolicy(bool switching = false) {
  core::TmPolicy p = recoveryPolicy();
  p.htmLock = true;
  p.switching = switching;
  return p;
}

}  // namespace lktm::test
