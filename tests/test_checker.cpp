// Negative tests of the coherence checker: deliberately corrupt system state
// and assert the checker reports each class of violation (a checker that
// can't fail is not checking anything).
#include <gtest/gtest.h>

#include "coherence/checker.hpp"
#include "testbed.hpp"

namespace lktm::test {
namespace {

constexpr Addr kA = 0x100000;

mem::CacheEntry* install(TestSystem& sys, CoreId c, LineAddr line,
                         mem::MesiState st) {
  auto& cache = sys.l1(c).cacheMut();
  auto* way = cache.invalidWay(line);
  EXPECT_NE(way, nullptr);
  cache.install(*way, line, st, {});
  return way;
}

std::vector<std::string> check(TestSystem& sys) { return sys.memSystem().check(); }

TEST(Checker, CleanSystemIsClean) {
  TestSystem sys;
  sys.store(0, kA, 1);
  sys.load(1, kA);
  sys.drain();
  EXPECT_TRUE(check(sys).empty());
}

TEST(Checker, DetectsDoubleExclusive) {
  TestSystem sys;
  install(sys, 0, lineOf(kA), mem::MesiState::M);
  install(sys, 1, lineOf(kA), mem::MesiState::E);
  const auto v = check(sys);
  ASSERT_FALSE(v.empty());
  bool found = false;
  for (const auto& s : v) found |= s.find("SWMR") != std::string::npos;
  EXPECT_TRUE(found) << v[0];
}

TEST(Checker, DetectsExclusiveWithSharer) {
  TestSystem sys;
  install(sys, 0, lineOf(kA), mem::MesiState::M);
  install(sys, 1, lineOf(kA), mem::MesiState::S);
  const auto v = check(sys);
  ASSERT_FALSE(v.empty());
  bool found = false;
  for (const auto& s : v) found |= s.find("coexists") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Checker, SwmrRuleAloneListsTheHolders) {
  // The per-state rule the model checker runs: one message per line, naming
  // every holder, and nothing about the quiescent-only rules.
  TestSystem sys;
  install(sys, 0, lineOf(kA), mem::MesiState::M);
  install(sys, 1, lineOf(kA), mem::MesiState::S);
  const auto v =
      coh::CoherenceChecker(sys.memSystem().l1s(), &sys.dir()).checkSwmr();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "line 0x4000: SWMR violated: an E/M copy coexists with 1 other(s): c0=M c1=S");
}

TEST(Checker, DetectsDoubleDirty) {
  TestSystem sys;
  // Two S copies, both marked dirty (impossible in a correct protocol).
  install(sys, 0, lineOf(kA), mem::MesiState::S)->dirty = true;
  install(sys, 1, lineOf(kA), mem::MesiState::S)->dirty = true;
  const auto v = check(sys);
  bool found = false;
  for (const auto& s : v) found |= s.find("dirty") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Checker, DetectsStaleDirectoryOwner) {
  TestSystem sys;
  // Real flow gives ownership to core 0...
  sys.store(0, kA, 1);
  sys.drain();
  // ...then we secretly move the E/M copy to core 1 without telling the dir.
  auto* e = sys.l1(0).cacheMut().find(lineOf(kA));
  ASSERT_NE(e, nullptr);
  e->invalidate();
  install(sys, 1, lineOf(kA), mem::MesiState::M);
  const auto v = check(sys);
  bool found = false;
  for (const auto& s : v) found |= s.find("directory owner") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Checker, DetectsValueDivergenceOfCleanCopy) {
  TestSystem sys;
  sys.memory().writeWord(kA, 5);
  sys.load(0, kA);
  sys.drain();
  // Corrupt the clean copy: it must match the LLC.
  auto* e = sys.l1(0).cacheMut().find(lineOf(kA));
  ASSERT_NE(e, nullptr);
  e->data[0] = 999;
  const auto v = check(sys);
  bool found = false;
  for (const auto& s : v) found |= s.find("disagrees") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Checker, DetectsTxBitsOutsideTransaction) {
  TestSystem sys;
  sys.load(0, kA);
  sys.drain();
  sys.l1(0).cacheMut().find(lineOf(kA))->txRead = true;  // no tx running
  const auto v = check(sys);
  bool found = false;
  for (const auto& s : v) found |= s.find("outside a tx") != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(Checker, DetectsBusyDirectory) {
  TestSystem sys;
  // Issue a load and check before it completes: directory is mid-transaction.
  auto done = sys.asyncLoad(0, kA);
  // Step a few events so the request reaches the directory, but not enough
  // to finish.
  for (int i = 0; i < 3; ++i) sys.engine().queue().runOne();
  const auto v = check(sys);
  bool found = false;
  for (const auto& s : v) found |= s.find("not quiescent") != std::string::npos;
  EXPECT_TRUE(found);
  sys.runUntil(*done);
  sys.drain();
}

}  // namespace
}  // namespace lktm::test
