// Exhaustive schedule exploration for the protocol model checker.
//
// The search is stateless (CHESS-style): protocol state lives in live
// components and event closures, which cannot be snapshotted, so the checker
// re-runs each path from the initial state with a forced schedule prefix.
// The ScheduleOracle turns every set of same-cycle-ready events into an
// explicit branch; the DfsOracle replays the prefix, then takes choice 0 and
// records every branch's arity. Backtracking increments the deepest trail
// entry that still has an unexplored sibling and replays.
//
// Visited-state pruning: once the prefix is consumed (new territory), every
// executed event's canonical fingerprint is looked up; a hit prunes the path
// — the continuation from that state was already explored from its first
// visit. Pruning is what makes abort/retry loops terminate: a livelocking
// schedule revisits a canonical state and is cut there.
//
// Invariants are checked after every executed event (state-level), at every
// reject send (event-level, via the MsgRegistry hook), and when the queue
// drains (leaf-level: the full coherence rule set, then quiescence — a
// drained queue with unfinished programs or un-quiesced protocol state is a
// deadlock, reported with diagnostics).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.hpp"
#include "verify/harness.hpp"
#include "verify/invariants.hpp"

namespace lktm::verify {

/// Replays a forced choice prefix, then always picks 0, recording every
/// branch (chosen index + arity) it passes through.
class DfsOracle final : public sim::ScheduleOracle {
 public:
  struct Branch {
    std::size_t chosen = 0;
    std::size_t arity = 0;
  };

  explicit DfsOracle(std::vector<std::size_t> prefix) : prefix_(std::move(prefix)) {}

  std::size_t pick(Cycle now, std::size_t nReady) override;

  const std::vector<Branch>& trail() const { return trail_; }
  bool prefixConsumed() const { return trail_.size() >= prefix_.size(); }
  std::vector<std::size_t> choices() const;

 private:
  std::vector<std::size_t> prefix_;
  std::vector<Branch> trail_;
};

struct CheckOptions {
  std::uint64_t maxEventsPerPath = 100'000;  ///< depth bound per schedule
  std::uint64_t maxPaths = UINT64_MAX;
  std::uint64_t maxStates = UINT64_MAX;
};

/// A reproducible violating schedule, dumpable to / parseable from a file in
/// the coherence_replay trace style (see write/readCounterexample).
struct Counterexample {
  std::string configName;
  coh::DirectoryController::InjectedBug bug =
      coh::DirectoryController::InjectedBug::None;
  std::string invariant;
  std::string detail;
  std::vector<std::size_t> schedule;  ///< forced choice at each branch
  std::string trace;                  ///< message deliveries, replay style
  /// Chrome trace_event JSON of the violating path (txn/lock-mode spans,
  /// reject/wakeup/directory instants).
  std::string traceJson;
};

struct CheckResult {
  std::vector<Violation> violations;
  std::optional<Counterexample> cex;
  std::uint64_t pathsExplored = 0;
  std::uint64_t statesVisited = 0;
  std::uint64_t choicePoints = 0;  ///< fresh scheduling decisions taken
  std::uint64_t prunedPaths = 0;
  std::uint64_t eventsExecuted = 0;
  bool truncated = false;  ///< a limit was hit: absence is NOT proven
  std::string deadlockDiagnostic;

  bool clean() const { return violations.empty(); }
  bool exhaustive() const { return !truncated; }
};

class ModelChecker {
 public:
  explicit ModelChecker(ModelConfig cfg, CheckOptions opt = {});

  /// Explore every schedule (up to the configured bounds). Stops at the
  /// first violating schedule, which becomes the counterexample.
  CheckResult run();

  /// Re-run one forced schedule (e.g. a parsed counterexample) and report
  /// what it violates. No pruning, no backtracking.
  static CheckResult replaySchedule(const ModelConfig& cfg,
                                    const std::vector<std::size_t>& schedule,
                                    std::uint64_t maxEvents = 100'000);

 private:
  struct PathOutcome {
    std::vector<Violation> violations;
    std::string trace;
    std::string traceJson;  ///< Chrome JSON, filled on violation
    bool pruned = false;
    bool truncated = false;
    std::uint64_t events = 0;
    std::uint64_t freshChoices = 0;
    std::string deadlockDiagnostic;
  };

  static PathOutcome runPath(const ModelConfig& cfg, DfsOracle& oracle,
                             // lktm-lint: allow(no-unordered-iteration) -- membership test only
                             std::unordered_set<std::uint64_t>* visited,
                             const CheckOptions& opt, std::uint64_t* statesVisited);

  ModelConfig cfg_;
  CheckOptions opt_;
};

const char* toString(coh::DirectoryController::InjectedBug bug);
std::optional<coh::DirectoryController::InjectedBug> bugFromString(const std::string& s);

/// Serialize / parse a counterexample. Format: a small header (config,
/// injected bug, violated invariant, schedule) followed by the delivery
/// trace between trace-begin/trace-end markers.
void writeCounterexample(const std::string& path, const Counterexample& cex);
std::optional<Counterexample> readCounterexample(const std::string& path);

}  // namespace lktm::verify
