// Self-contained small-configuration system for the protocol model checker:
// 2-4 cores, an ideal 1-cycle network, a handful of cache lines, and a
// scripted transactional program per core driven directly at the L1 CPU port
// of a coh::MemorySystem (as the test bed does). Each DFS path builds a fresh
// harness, replays a schedule prefix through the ScheduleOracle, and reads
// canonical fingerprints + invariant views off it.
//
// Abort/restart: when a core's transaction aborts, the driver rewinds its
// program counter to the enclosing TxBegin and re-runs the attempt one cycle
// later. Completions are generation-guarded so an event from a squashed
// attempt can never advance the restarted program.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coherence/memory_system.hpp"
#include "sim/context.hpp"
#include "verify/invariants.hpp"
#include "verify/msg_registry.hpp"

namespace lktm::verify {

enum class OpKind : std::uint8_t { TxBegin, Load, Store, Commit, HlBegin, HlEnd };

const char* toString(OpKind k);

struct ProgOp {
  OpKind kind{};
  LineAddr line = 0;
  std::uint64_t value = 0;
};

struct ModelConfig {
  std::string name;
  unsigned cores = 2;
  unsigned banks = 1;  ///< LLC directory banks (lines interleave line & (banks-1))
  mem::CacheGeometry l1{4 * kLineBytes, 2};
  coh::ProtocolParams protocol;
  core::TmPolicy policy;
  std::vector<std::vector<ProgOp>> programs;  ///< one script per core
  coh::DirectoryController::InjectedBug bug =
      coh::DirectoryController::InjectedBug::None;
};

/// The built-in small configurations lktm_check exposes (2c1l, 2c2l-cycle,
/// 3c1l, 3c2l, tl-overflow, stm-commit — the TL2 software-commit coherence
/// footprint — plus the 2-bank variants 2c2l-cycle-2b, 3c2l-2b and
/// tl-overflow-2b that split the line universe across directory banks —
/// tl-overflow-2b drives the inter-bank lock/clear broadcasts). Returns
/// nullopt for unknown names.
std::optional<ModelConfig> namedConfig(const std::string& name);
std::vector<std::string> configNames();

class ModelHarness {
 public:
  explicit ModelHarness(const ModelConfig& cfg);
  ~ModelHarness();

  ModelHarness(const ModelHarness&) = delete;
  ModelHarness& operator=(const ModelHarness&) = delete;

  /// Kick off every core's program (schedules the first steps; nothing runs
  /// until the caller drives the event queue).
  void start();

  sim::SimContext& ctx() { return ctx_; }
  sim::Engine& engine() { return ctx_.engine(); }
  MsgRegistry& registry() { return registry_; }
  coh::DirectoryController& dir() { return sys_.dir(); }
  coh::L1Controller& l1(CoreId c) { return sys_.l1(c); }
  const ModelConfig& config() const { return cfg_; }

  SystemView view() const;

  /// Canonical fingerprint of the whole state, for visited-state pruning
  /// (DESIGN.md §10): every component's hashState(), the pending events as
  /// sorted (when - now) deltas, the in-flight messages, and each driver's
  /// program counter and per-attempt progress. Monotonic counters (absolute
  /// cycles, sequence numbers, retries, aborts, generations, statistics) are
  /// excluded, or paths with different histories could never converge. A
  /// collision can prune a reachable state; it never fabricates a violation.
  std::uint64_t fingerprint() const;

  bool allDone() const;
  /// One line per unfinished program, for deadlock diagnostics.
  std::string programStatus() const;

 private:
  /// One core's program driver; it is also the CPU port of that core's L1.
  struct Driver final : coh::L1Controller::CpuPort {
    ModelHarness* harness = nullptr;
    CoreId id = 0;
    std::size_t pc = 0;
    std::size_t attemptStart = 0;  ///< rewind target on abort
    std::uint64_t gen = 0;         ///< attempt generation (staleness guard)
    std::uint64_t insts = 0;       ///< ops completed this attempt (= priority)
    bool done = false;
    unsigned aborts = 0;

    std::uint64_t priorityValue() const override { return insts; }
    void onAbort(AbortCause) override { harness->onAbort(id); }
    void onSwitchedToStl() override {}
  };

  void step(CoreId c);
  void opDone(CoreId c, std::uint64_t gen);
  void onAbort(CoreId c);

  ModelConfig cfg_;
  sim::SimContext ctx_;
  coh::MemorySystem sys_;
  MsgRegistry registry_;
  std::vector<Driver> drivers_;
};

}  // namespace lktm::verify
