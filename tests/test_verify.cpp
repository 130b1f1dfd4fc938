// Tests for the protocol model checker (src/verify): canonical state
// fingerprints, each invariant against a hand-built violating state, the
// exhaustive DFS on the small configs, and the counterexample dump/replay
// round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "trace_decode.hpp"
#include "verify/checker.hpp"
#include "verify/harness.hpp"
#include "verify/invariants.hpp"

namespace lktm::verify {
namespace {

ModelConfig mustConfig(const std::string& name) {
  auto cfg = namedConfig(name);
  if (!cfg.has_value()) throw std::runtime_error("unknown config " + name);
  return *cfg;
}

// ---------------------------------------------------------------- StateCanon

TEST(StateCanon, SameScheduleSameFingerprint) {
  // Two independent harnesses driven by the identical (default) schedule must
  // agree on every intermediate fingerprint — otherwise visited-state pruning
  // would depend on which run first reached a state.
  ModelHarness a(mustConfig("2c1l"));
  ModelHarness b(mustConfig("2c1l"));
  a.start();
  b.start();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  sim::EventQueue& qa = a.engine().queue();
  sim::EventQueue& qb = b.engine().queue();
  unsigned steps = 0;
  while (qa.runOne()) {
    ASSERT_TRUE(qb.runOne());
    ASSERT_EQ(a.fingerprint(), b.fingerprint()) << "diverged at event " << steps;
    ++steps;
  }
  EXPECT_FALSE(qb.runOne());
  EXPECT_GT(steps, 0u);
  EXPECT_TRUE(a.allDone());
  EXPECT_TRUE(b.allDone());
}

TEST(StateCanon, DifferingMshrRejectStateDiffers) {
  // The fingerprint must see the recovery-mechanism hold state: an Issued
  // request, a HeldRejected one, and a WaitingWakeup one are three different
  // protocol situations.
  ModelHarness h(mustConfig("2c1l"));
  const std::uint64_t base = h.fingerprint();
  mem::MshrEntry& e = h.l1(0).mshrFileMut().allocate(1);
  e.isWrite = true;
  e.fromTx = true;
  const std::uint64_t issued = h.fingerprint();
  EXPECT_NE(base, issued);
  e.state = mem::MshrState::HeldRejected;
  const std::uint64_t held = h.fingerprint();
  EXPECT_NE(issued, held);
  e.state = mem::MshrState::WaitingWakeup;
  const std::uint64_t waiting = h.fingerprint();
  EXPECT_NE(held, waiting);
  EXPECT_NE(issued, waiting);
  // retries is a monotonic counter, deliberately excluded: two states that
  // differ only in how often a request was re-sent must converge.
  e.retries = 17;
  EXPECT_EQ(waiting, h.fingerprint());
}

TEST(StateCanon, CacheContentsAffectFingerprint) {
  ModelHarness h(mustConfig("2c1l"));
  const std::uint64_t base = h.fingerprint();
  mem::CacheArray& cache = h.l1(0).cacheMut();
  mem::CacheEntry* way = cache.invalidWay(1);
  ASSERT_NE(way, nullptr);
  cache.install(*way, 1, mem::MesiState::S, mem::LineData{});
  const std::uint64_t shared = h.fingerprint();
  EXPECT_NE(base, shared);
  way->state = mem::MesiState::M;
  EXPECT_NE(shared, h.fingerprint());
}

// ------------------------------------------------------------ InvariantPack

TEST(Invariants, CleanInitialStateHasNoViolations) {
  ModelHarness h(mustConfig("2c1l"));
  EXPECT_TRUE(InvariantPack::checkState(h.view()).empty());
  EXPECT_TRUE(InvariantPack::checkQuiescent(h.view()).empty());
}

TEST(Invariants, SwmrCatchesExclusiveSharedOverlap) {
  ModelHarness h(mustConfig("2c1l"));
  auto plant = [&](CoreId c, mem::MesiState st) {
    mem::CacheArray& cache = h.l1(c).cacheMut();
    mem::CacheEntry* way = cache.invalidWay(1);
    ASSERT_NE(way, nullptr);
    cache.install(*way, 1, st, mem::LineData{});
  };
  plant(0, mem::MesiState::S);
  plant(1, mem::MesiState::M);
  const auto violations = InvariantPack::checkState(h.view());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "swmr");
  EXPECT_NE(violations[0].detail.find("line 0x1:"), std::string::npos);
  EXPECT_NE(violations[0].detail.find("c0=S c1=M"), std::string::npos);
}

TEST(Invariants, SwmrAllowsManySharers) {
  ModelHarness h(mustConfig("2c1l"));
  for (CoreId c = 0; c < 2; ++c) {
    mem::CacheArray& cache = h.l1(c).cacheMut();
    mem::CacheEntry* way = cache.invalidWay(1);
    ASSERT_NE(way, nullptr);
    cache.install(*way, 1, mem::MesiState::S, mem::LineData{});
  }
  EXPECT_TRUE(InvariantPack::checkState(h.view()).empty());
}

TEST(Invariants, NoLostWakeupCatchesUnrecordedWaiter) {
  // c0 parks in WaitingWakeup but nobody anywhere has it recorded: the wakeup
  // can never arrive.
  ModelHarness h(mustConfig("2c1l"));
  mem::MshrEntry& e = h.l1(0).mshrFileMut().allocate(1);
  e.state = mem::MshrState::WaitingWakeup;
  auto violations = InvariantPack::checkState(h.view());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "no-lost-wakeup");

  // Recording the waiter in a peer's wakeup table covers it again.
  h.l1(1).wakeupTableMut().record(1, 0);
  EXPECT_TRUE(InvariantPack::checkState(h.view()).empty());
}

TEST(Invariants, NoLostWakeupHonorsEarlyWakeupFlag) {
  // A wakeup that raced ahead of the reject response is latched in the MSHR
  // entry itself; no table needs to cover it.
  ModelHarness h(mustConfig("2c1l"));
  mem::MshrEntry& e = h.l1(0).mshrFileMut().allocate(1);
  e.state = mem::MshrState::WaitingWakeup;
  e.earlyWakeup = true;
  EXPECT_TRUE(InvariantPack::checkState(h.view()).empty());
}

TEST(Invariants, RejectWithNoPendingTransactionIsViolation) {
  ModelHarness h(mustConfig("2c1l"));
  coh::Msg reject;
  reject.type = coh::MsgType::InvReject;
  reject.line = 1;
  reject.from = 0;
  const auto v = InvariantPack::checkReject(h.view(), reject, /*responder=*/0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "reject-priority");
}

TEST(Invariants, LockConflictRejectNeedsALocker) {
  // The directory claiming "a lock transaction beat you" with no lock
  // transaction anywhere is a protocol lie.
  ModelHarness h(mustConfig("2c1l"));
  coh::Msg reject;
  reject.type = coh::MsgType::RejectResp;
  reject.line = 1;
  reject.rejectHint = AbortCause::LockConflict;
  const auto v = InvariantPack::checkReject(h.view(), reject, kNoCore);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "reject-priority");
}

TEST(Invariants, QuiescenceCatchesLeftoverMshrEntry) {
  ModelHarness h(mustConfig("2c1l"));
  mem::MshrEntry& e = h.l1(1).mshrFileMut().allocate(2);
  e.state = mem::MshrState::HeldRejected;
  const auto violations = InvariantPack::checkQuiescent(h.view());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "quiescence");
  EXPECT_NE(violations[0].detail.find("c1"), std::string::npos);
}

TEST(Invariants, QuiescenceRunsTheFullCoherenceRuleSet) {
  // At a drained leaf the full coherence rule set runs: a clean copy that
  // disagrees with the LLC breaks no per-state invariant, but the leaf
  // reports it.
  ModelHarness h(mustConfig("2c1l"));
  h.dir().preloadLlc(1, 2);
  mem::CacheArray& cache = h.l1(0).cacheMut();
  mem::CacheEntry* way = cache.invalidWay(1);
  ASSERT_NE(way, nullptr);
  mem::LineData stale{};
  stale[0] = 7;
  cache.install(*way, 1, mem::MesiState::S, stale);
  EXPECT_TRUE(InvariantPack::checkState(h.view()).empty());
  bool found = false;
  for (const Violation& v : InvariantPack::checkQuiescent(h.view())) {
    EXPECT_EQ(v.invariant, "coherence") << v.detail;
    found |= v.detail.find("disagrees with the LLC") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

// ----------------------------------------------------------------- Checker

TEST(Checker, Exhaustive2c1lIsClean) {
  ModelChecker checker(mustConfig("2c1l"));
  const CheckResult r = checker.run();
  EXPECT_TRUE(r.clean()) << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_TRUE(r.exhaustive());
  EXPECT_GT(r.pathsExplored, 1u);
  EXPECT_GT(r.statesVisited, 0u);
  EXPECT_GT(r.choicePoints, 0u);
}

TEST(Checker, RejectCycleConfigProvedDeadlockFree) {
  // Opposite-order writers under WaitWakeup: the shape that deadlocks if two
  // rejects can form a cycle. The priority total order must break it on every
  // interleaving; quiescence-at-leaf would report the deadlock otherwise.
  ModelChecker checker(mustConfig("2c2l-cycle"));
  const CheckResult r = checker.run();
  EXPECT_TRUE(r.clean()) << (r.violations.empty() ? "" : r.violations[0].detail)
                         << r.deadlockDiagnostic;
  EXPECT_TRUE(r.exhaustive());
}

TEST(Checker, WakeupAbortRaceConfigIsClean) {
  ModelChecker checker(mustConfig("3c1l"));
  const CheckResult r = checker.run();
  EXPECT_TRUE(r.clean()) << (r.violations.empty() ? "" : r.violations[0].detail)
                         << r.deadlockDiagnostic;
  EXPECT_TRUE(r.exhaustive());
}

TEST(Checker, TlOverflowConfigIsClean) {
  ModelChecker checker(mustConfig("tl-overflow"));
  const CheckResult r = checker.run();
  EXPECT_TRUE(r.clean()) << (r.violations.empty() ? "" : r.violations[0].detail)
                         << r.deadlockDiagnostic;
  EXPECT_TRUE(r.exhaustive());
}

TEST(Checker, EveryNamedConfigKeepsItsPathsAndStates) {
  // Every named config is clean and exhaustive, with the full coherence rule
  // set at its leaves, and explores exactly its pinned paths and states: a
  // change to the protocol's interleavings or to the fingerprint shows here.
  struct Row {
    const char* name;
    std::uint64_t paths;
    std::uint64_t states;
  };
  const Row rows[] = {
      {"2c1l", 12, 54},          {"2c2l-cycle", 39, 73},    {"3c1l", 112, 371},
      {"3c2l", 128, 196},        {"tl-overflow", 13, 42},   {"stm-commit", 38, 81},
      {"2c2l-cycle-2b", 39, 73}, {"3c2l-2b", 128, 196},     {"tl-overflow-2b", 14, 47},
  };
  std::vector<std::string> names;
  for (const Row& row : rows) {
    names.emplace_back(row.name);
    const CheckResult r = ModelChecker(mustConfig(row.name)).run();
    EXPECT_TRUE(r.clean()) << row.name << ": "
                           << (r.violations.empty() ? "" : r.violations[0].detail)
                           << r.deadlockDiagnostic;
    EXPECT_TRUE(r.exhaustive()) << row.name;
    EXPECT_EQ(r.pathsExplored, row.paths) << row.name;
    EXPECT_EQ(r.statesVisited, row.states) << row.name;
  }
  EXPECT_EQ(names, configNames());
}

TEST(Checker, InjectedSwmrBugIsFoundAcrossBanks) {
  ModelConfig cfg = mustConfig("3c2l-2b");
  cfg.bug = coh::DirectoryController::InjectedBug::SwmrSkipInvalidation;
  const CheckResult r = ModelChecker(cfg).run();
  ASSERT_FALSE(r.clean());
  EXPECT_EQ(r.violations[0].invariant, "swmr");
}

TEST(Checker, InjectedSwmrBugIsFound) {
  ModelConfig cfg = mustConfig("2c1l");
  cfg.bug = coh::DirectoryController::InjectedBug::SwmrSkipInvalidation;
  ModelChecker checker(cfg);
  const CheckResult r = checker.run();
  ASSERT_FALSE(r.clean());
  EXPECT_EQ(r.violations[0].invariant, "swmr");
  ASSERT_TRUE(r.cex.has_value());
  EXPECT_FALSE(r.cex->schedule.empty());
  EXPECT_FALSE(r.cex->trace.empty());
  // The counterexample carries the violating path's event stream in every
  // build, and its spans nest.
  ASSERT_FALSE(r.cex->traceJson.empty());
  const test::DecodedTrace decoded = test::decodeChromeTrace(r.cex->traceJson);
  EXPECT_FALSE(decoded.events.empty());
  std::string why;
  EXPECT_TRUE(sim::TraceSink::nestingWellFormed(decoded.events, &why)) << why;
}

TEST(Checker, CounterexampleRoundTripsAndReplays) {
  ModelConfig cfg = mustConfig("2c1l");
  cfg.bug = coh::DirectoryController::InjectedBug::SwmrSkipInvalidation;
  ModelChecker checker(cfg);
  const CheckResult r = checker.run();
  ASSERT_TRUE(r.cex.has_value());

  const std::string path = ::testing::TempDir() + "lktm_cex_roundtrip.txt";
  writeCounterexample(path, *r.cex);
  const auto parsed = readCounterexample(path);
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->configName, r.cex->configName);
  EXPECT_EQ(parsed->bug, r.cex->bug);
  EXPECT_EQ(parsed->invariant, r.cex->invariant);
  EXPECT_EQ(parsed->detail, r.cex->detail);
  EXPECT_EQ(parsed->schedule, r.cex->schedule);
  EXPECT_EQ(parsed->trace, r.cex->trace);

  // Replaying the parsed schedule must reproduce the identical violation and
  // delivery trace — this is the regression that keeps counterexamples
  // actionable.
  ModelConfig replayCfg = mustConfig(parsed->configName);
  replayCfg.bug = parsed->bug;
  const CheckResult replay = ModelChecker::replaySchedule(replayCfg, parsed->schedule);
  ASSERT_FALSE(replay.clean());
  EXPECT_EQ(replay.violations[0].invariant, r.cex->invariant);
  EXPECT_EQ(replay.violations[0].detail, r.cex->detail);
  ASSERT_TRUE(replay.cex.has_value());
  EXPECT_EQ(replay.cex->trace, r.cex->trace);
}

TEST(Checker, ReplayWithoutBugStaysClean) {
  // The counterexample schedule is only a violation because of the injected
  // bug; on the fixed protocol the same forced schedule must pass, proving
  // the violation came from the bug and not from the harness.
  ModelConfig cfg = mustConfig("2c1l");
  cfg.bug = coh::DirectoryController::InjectedBug::SwmrSkipInvalidation;
  ModelChecker checker(cfg);
  const CheckResult r = checker.run();
  ASSERT_TRUE(r.cex.has_value());

  ModelConfig fixedCfg = mustConfig("2c1l");
  const CheckResult replay = ModelChecker::replaySchedule(fixedCfg, r.cex->schedule);
  EXPECT_TRUE(replay.clean()) << replay.violations[0].detail;
}

TEST(Checker, MaxStatesTruncationIsReported) {
  CheckOptions opt;
  opt.maxStates = 5;
  ModelChecker checker(mustConfig("2c1l"), opt);
  const CheckResult r = checker.run();
  EXPECT_TRUE(r.truncated);
  EXPECT_FALSE(r.exhaustive());
}

TEST(Checker, NamedConfigsAllResolve) {
  for (const std::string& name : configNames()) {
    const auto cfg = namedConfig(name);
    ASSERT_TRUE(cfg.has_value()) << name;
    EXPECT_EQ(cfg->programs.size(), cfg->cores) << name;
  }
  EXPECT_FALSE(namedConfig("no-such-config").has_value());
}

}  // namespace
}  // namespace lktm::verify
