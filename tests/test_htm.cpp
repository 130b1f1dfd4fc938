// Best-effort HTM semantics and the recovery mechanism, at protocol level:
// speculative isolation, abort causes, requester-wins vs recovery decisions,
// the three reject actions, pre-image flushing (Fig 3) and wakeups.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testbed.hpp"

namespace lktm::test {
namespace {

constexpr Addr kA = 0x100000;
constexpr Addr kB = 0x200040;
constexpr Addr kLock = 0x1000;

TEST(Htm, CommitPublishesSpeculativeStores) {
  TestSystem sys;
  sys.l1(0).txBegin();
  sys.store(0, kA, 5);
  EXPECT_TRUE(sys.l1(0).cache().find(lineOf(kA))->txWrite);
  sys.commit(0);
  EXPECT_FALSE(sys.l1(0).cache().find(lineOf(kA))->transactional());
  EXPECT_EQ(sys.load(1, kA), 5u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, AbortDiscardsSpeculativeStores) {
  TestSystem sys;
  sys.memory().writeWord(kA, 3);
  sys.l1(0).txBegin();
  sys.store(0, kA, 99);
  sys.l1(0).txAbort(AbortCause::Explicit);
  sys.drain();
  EXPECT_EQ(sys.load(1, kA), 3u);  // pre-transaction value
  EXPECT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Explicit);
  sys.expectCoherent();
}

TEST(Htm, AbortRestoresPreImageOfDirtyLine) {
  // A line dirty with *pre-transaction* data is speculatively overwritten;
  // the WbClean pre-image flush (Fig 3 support) must preserve the old value.
  TestSystem sys;
  sys.store(0, kA, 7);  // non-speculative dirty
  sys.l1(0).txBegin();
  sys.store(0, kA, 9);  // speculative; pre-image 7 flushed to LLC
  sys.l1(0).txAbort(AbortCause::Explicit);
  sys.drain();
  EXPECT_EQ(sys.load(1, kA), 7u);
  sys.expectCoherent();
}

TEST(Htm, RequesterWinsAbortsResponder) {
  TestSystem sys;  // default policy: requester-wins
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  sys.store(1, kA, 2);  // conflicting request wins
  EXPECT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::MemConflict);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::None);
  sys.commit(1);
  EXPECT_EQ(sys.load(0, kA), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, RequesterWinsOnReadSetConflict) {
  TestSystem sys;
  sys.l1(0).txBegin();
  sys.load(0, kA);  // read set
  sys.store(1, kA, 2);  // non-tx exclusive request
  EXPECT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::NonTran);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, ConcurrentReadersDontConflict) {
  TestSystem sys;
  sys.memory().writeWord(kA, 11);
  sys.l1(0).txBegin();
  EXPECT_EQ(sys.load(0, kA), 11u);
  sys.l1(1).txBegin();
  EXPECT_EQ(sys.load(1, kA), 11u);  // read-read: no conflict
  EXPECT_TRUE(sys.aborts(0).empty());
  EXPECT_TRUE(sys.aborts(1).empty());
  sys.commit(0);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, LockWordConflictClassifiedMutex) {
  TestSystem sys;
  sys.l1(0).setLockLine(lineOf(kLock));
  sys.l1(1).setLockLine(lineOf(kLock));
  sys.l1(0).txBegin();
  sys.load(0, kLock);      // subscribe the fallback lock
  sys.store(1, kLock, 1);  // another thread acquires it non-speculatively
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Mutex);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, OverflowAbortsWithoutSwitching) {
  TestSystemOptions opt;
  opt.l1 = mem::CacheGeometry{8 * 1024, 4};  // 32 sets
  TestSystem sys(opt);
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 1);
  }
  // Fifth line in the same set: every way is transactional -> overflow.
  bool done = false;
  sys.l1(0).store(kA + 4ull * 32 * kLineBytes, 1, [&] { done = true; });
  sys.drain();
  EXPECT_FALSE(done) << "the overflowing store belongs to the dead transaction";
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Overflow);
  // All speculative stores rolled back.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sys.load(1, kA + static_cast<Addr>(i) * 32 * kLineBytes), 0u);
  }
  sys.expectCoherent();
}

TEST(Htm, ReadSetEvictionAlsoOverflows) {
  TestSystemOptions opt;
  opt.l1 = mem::CacheGeometry{8 * 1024, 4};
  TestSystem sys(opt);
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.load(0, kA + static_cast<Addr>(i) * 32 * kLineBytes);
  }
  auto done = sys.asyncLoad(0, kA + 4ull * 32 * kLineBytes);
  sys.drain();
  EXPECT_FALSE(*done);
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Overflow);
}

// ------------------------------------------------------ recovery mechanism

TEST(Recovery, HigherPriorityResponderRejects) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done) << "low-priority request must be held";
  EXPECT_TRUE(sys.aborts(0).empty()) << "high-priority holder survives";
  EXPECT_TRUE(sys.aborts(1).empty()) << "WaitWakeup does not abort the requester";
  EXPECT_EQ(sys.l1(0).txCounters().rejectsSent, 1u);
  EXPECT_EQ(sys.l1(1).txCounters().rejectsReceived, 1u);
  // Holder commits -> wakeup -> held request completes.
  sys.commit(0);
  sys.runUntil(*done);
  EXPECT_EQ(sys.l1(0).txCounters().wakeupsSent, 1u);
  sys.commit(1);
  EXPECT_EQ(sys.load(0, kA), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, AbortAlsoWakesWaiters) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done);
  sys.l1(0).txAbort(AbortCause::Explicit);  // e.g. a fault elsewhere
  sys.runUntil(*done);
  sys.commit(1);
  EXPECT_EQ(sys.load(0, kA), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, LowerPriorityResponderStillAborts) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 10);
  sys.setPriority(1, 100);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  sys.store(1, kA, 2);  // higher priority requester wins as usual
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::MemConflict);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, SelfAbortActionAbortsRequester) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::SelfAbort);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done);
  ASSERT_EQ(sys.aborts(1).size(), 1u);
  EXPECT_EQ(sys.aborts(1)[0], AbortCause::MemConflict);
  EXPECT_TRUE(sys.aborts(0).empty());
  sys.commit(0);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, RetryLaterEventuallySucceeds) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::RetryLater);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  // Let a few retry rounds happen while the holder still runs.
  for (int i = 0; i < 200 && !*done; ++i) sys.engine().queue().runOne();
  EXPECT_FALSE(*done);
  sys.commit(0);
  sys.runUntil(*done);  // a later retry wins
  EXPECT_GT(sys.l1(1).txCounters().rejectsReceived, 0u);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, InvalidationRejectKeepsSharedCopy) {
  // Exclusive request against a *read* line of a higher-priority tx: the
  // sharer rejects the Inv and keeps its S copy.
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.memory().writeWord(kA, 4);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.load(1, kA);  // make the line shared first
  sys.l1(0).txBegin();
  sys.load(0, kA);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 9);  // upgrade rejected by core 0
  sys.drain();
  EXPECT_FALSE(*done);
  ASSERT_NE(sys.l1(0).cache().find(lineOf(kA)), nullptr);
  EXPECT_TRUE(sys.l1(0).cache().find(lineOf(kA))->txRead);
  sys.commit(0);
  sys.runUntil(*done);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, TieBrokenByCoreIdEndToEnd) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 5);
  sys.setPriority(1, 5);
  // Core 0 (smaller id) holds: it wins the tie and rejects core 1.
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done);
  EXPECT_TRUE(sys.aborts(0).empty());
  sys.commit(0);
  sys.runUntil(*done);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, NonTxRequesterStillBeatsHtmTx) {
  // The paper keeps non_tran aborts under every configuration.
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 1'000'000);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.store(1, kA, 2);  // non-transactional store
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::NonTran);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, TxBitsClearAfterCommitAndAbort) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy();
  TestSystem sys(opt);
  sys.l1(0).txBegin();
  sys.load(0, kA);
  sys.store(0, kB, 1);
  sys.commit(0);
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            0u);
  sys.l1(0).txBegin();
  sys.store(0, kA, 2);
  sys.l1(0).txAbort(AbortCause::Explicit);
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            0u);
  sys.drain();
  sys.expectCoherent();
}

// ---------------------------------------------------------------------------
// Commit and abort visit only the entries the L1 marked when it set a tx bit.
// A full scan of the array in forEachValid order is the reference: the same
// TxAbortInv messages in the same order, and the same final entries.

/// Records the line of every TxAbortInv at send time.
struct TxAbortInvTap final : coh::MsgTap {
  std::vector<LineAddr> lines;
  void onSend(const coh::Msg& m, noc::NodeId, noc::NodeId) override {
    if (m.type == coh::MsgType::TxAbortInv) lines.push_back(m.line);
  }
  void onDeliver(const coh::Msg&, noc::NodeId, noc::NodeId) override {}
};

struct ExpectedEntry {
  const mem::CacheEntry* entry;
  mem::CacheEntry want;
};

/// Apply the full-scan commit (abort = false) or abort rules to a copy of
/// every valid entry; returns the TxAbortInv lines in scan order.
std::vector<LineAddr> fullScanReference(const mem::CacheArray& c, bool abort,
                                        std::vector<ExpectedEntry>& out) {
  std::vector<LineAddr> invs;
  c.forEachValid([&](const mem::CacheEntry& e) {
    mem::CacheEntry x = e;
    if (!abort) {
      x.txRead = x.txWrite = false;
    } else if (x.txWrite) {
      invs.push_back(x.line);
      x.invalidate();
    } else if (x.txRead && !x.dirty) {
      x.invalidate();
    } else {
      x.txRead = false;
    }
    out.push_back({&e, x});
  });
  return invs;
}

void expectEntries(const std::vector<ExpectedEntry>& expected) {
  for (const ExpectedEntry& x : expected) {
    const mem::CacheEntry& e = *x.entry;
    SCOPED_TRACE("line " + std::to_string(x.want.line));
    EXPECT_EQ(e.line, x.want.line);
    EXPECT_EQ(e.state, x.want.state);
    EXPECT_EQ(e.dirty, x.want.dirty);
    EXPECT_EQ(e.txRead, x.want.txRead);
    EXPECT_EQ(e.txWrite, x.want.txWrite);
    EXPECT_EQ(e.data, x.want.data);
    EXPECT_EQ(e.lru, x.want.lru);
  }
}

constexpr LineAddr kBase = 0x4000;  // set 0 of the 4-set L1 below

/// A 4-set, 2-way L1 whose transaction fills every way. Then two marked
/// entries change behind the controller's back: one way is refilled with a
/// non-transactional line (a stale mark), the other is left invalid.
TestSystemOptions smallL1() {
  TestSystemOptions opt;
  opt.l1 = mem::CacheGeometry{4 * 2 * kLineBytes, 2};
  return opt;
}

void markEveryWayThenEvictTwo(TestSystem& sys) {
  const auto at = [](LineAddr l) { return byteOf(kBase + l); };
  sys.store(0, at(1), 7);  // dirty before the transaction: survives an abort
  sys.l1(0).txBegin();
  sys.load(0, at(0));
  sys.store(0, at(4), 1);
  sys.load(0, at(1));
  sys.store(0, at(5), 2);
  sys.store(0, at(2), 3);
  sys.load(0, at(6));
  sys.load(0, at(3));
  sys.store(0, at(7), 4);
  sys.drain();
  mem::CacheArray& c = sys.l1(0).cacheMut();
  mem::CacheEntry* stale = c.find(kBase + 6);
  ASSERT_NE(stale, nullptr);
  ASSERT_TRUE(stale->txRead);
  stale->invalidate();
  c.install(*stale, kBase + 10, mem::MesiState::S, mem::LineData{});
  mem::CacheEntry* gone = c.find(kBase + 3);
  ASSERT_NE(gone, nullptr);
  gone->invalidate();
}

TEST(TxMarks, AbortMatchesFullScanWithStaleMark) {
  TxAbortInvTap tap;
  TestSystem sys(smallL1());
  markEveryWayThenEvictTwo(sys);
  std::vector<ExpectedEntry> expected;
  const std::vector<LineAddr> invs =
      fullScanReference(sys.l1(0).cache(), /*abort=*/true, expected);
  // One speculatively written line per set, sent in set order.
  ASSERT_EQ(invs, (std::vector<LineAddr>{kBase + 4, kBase + 5, kBase + 2, kBase + 7}));
  sys.ctx().setVerifyTap(&tap);
  sys.l1(0).txAbort(AbortCause::Explicit);
  sys.ctx().setVerifyTap(nullptr);
  EXPECT_EQ(tap.lines, invs);
  expectEntries(expected);
  ASSERT_NE(sys.l1(0).cache().find(kBase + 10), nullptr);  // the stale mark's line
  EXPECT_FALSE(sys.l1(0).cache().find(kBase + 10)->transactional());
}

TEST(TxMarks, CommitMatchesFullScanWithStaleMark) {
  TxAbortInvTap tap;
  TestSystem sys(smallL1());
  markEveryWayThenEvictTwo(sys);
  std::vector<ExpectedEntry> expected;
  fullScanReference(sys.l1(0).cache(), /*abort=*/false, expected);
  sys.ctx().setVerifyTap(&tap);
  bool done = false;
  sys.l1(0).txCommit([&] { done = true; });
  sys.ctx().setVerifyTap(nullptr);
  EXPECT_TRUE(tap.lines.empty());
  expectEntries(expected);
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            0u);
  sys.runUntil(done);
}

}  // namespace
}  // namespace lktm::test
