// The simulation engine: owns the event queue and a forward-progress
// watchdog. Protocol bugs that would livelock (e.g. a wakeup that never
// arrives) surface as SimulationHang with a diagnostic instead of a hung test.
// Every budget is in simulated cycles; the kernel reads no host clock, so a
// run's outcome depends only on its inputs.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace lktm::sim {

class Engine {
 public:
  explicit Engine(Cycle watchdogWindow = 4'000'000)
      : watchdogWindow_(watchdogWindow) {}

  EventQueue& queue() { return q_; }
  const EventQueue& queue() const { return q_; }
  Cycle now() const { return q_.now(); }

  /// Install the model checker's same-cycle choice oracle (nullptr restores
  /// the default bit-exact (cycle, seq) order). Not owned; the oracle must
  /// outlive every run it steers.
  void setScheduleOracle(ScheduleOracle* oracle) { q_.setOracle(oracle); }

  template <class F>
  void schedule(Cycle delay, F&& fn) {
    q_.schedule(delay, std::forward<F>(fn));
  }

  /// Rewind to a pristine pre-run state (clock, watchdog, diagnostics) while
  /// keeping the event queue's node slabs. Used by SimContext::beginRun so a
  /// context reused across sweep jobs does not re-allocate kernel memory.
  void reset(Cycle watchdogWindow) {
    q_.reset();
    watchdogWindow_ = watchdogWindow;
    lastProgress_ = 0;
    diagnostics_.clear();
  }

  /// Components call this when a thread makes progress the watchdog should
  /// see: a transaction or lock/STM critical section commits, an hlbegin is
  /// authorized, a barrier releases, a thread halts. Retiring an instruction
  /// does not count, so a spin loop never notes progress (which also lets a
  /// parked spinner leave the watchdog's view unchanged).
  void noteProgress() {
    lastProgress_ = q_.now();
    q_.setDeadline(deadline());
  }

  /// Register a callback that contributes one line to the hang diagnostic.
  void addDiagnostic(std::function<std::string()> fn) {
    diagnostics_.push_back(std::move(fn));
  }

  /// Run until the event queue drains. Throws SimulationHang when no progress
  /// was observed for `watchdogWindow` cycles, and SimulationTimeout when
  /// `maxCycles` elapse.
  void run(Cycle maxCycles = 2'000'000'000);

 private:
  EventQueue q_;
  Cycle watchdogWindow_;
  Cycle lastProgress_ = 0;
  Cycle limit_ = EventQueue::kNever;

  /// The last cycle an event may run at before run() throws.
  Cycle deadline() const {
    const Cycle idle = lastProgress_ + watchdogWindow_;
    return idle < lastProgress_ || idle > limit_ ? limit_ : idle;
  }
  std::vector<std::function<std::string()>> diagnostics_;
};

}  // namespace lktm::sim
