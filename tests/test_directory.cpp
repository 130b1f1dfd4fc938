// Directed unit tests of the DirectoryController against scripted fake L1s:
// each protocol flow is inspected message by message (who was asked what,
// in which order), independent of the real L1 implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "coherence/directory.hpp"
#include "noc/ideal.hpp"
#include "sim/engine.hpp"
#include "stats/registry.hpp"

namespace lktm::test {
namespace {

using coh::Msg;
using coh::MsgType;

/// Records every message delivered to this "L1".
struct FakeL1 final : coh::MsgSink {
  std::deque<Msg> inbox;
  void onMessage(const Msg& m) override { inbox.push_back(m); }

  Msg expect(MsgType t) {
    EXPECT_FALSE(inbox.empty()) << "expected " << coh::toString(t);
    if (inbox.empty()) return Msg{};
    Msg m = inbox.front();
    inbox.pop_front();
    EXPECT_EQ(m.type, t) << "got " << coh::toString(m.type);
    return m;
  }
};

struct DirHarness {
  sim::SimContext ctx;
  sim::Engine& engine = ctx.engine();
  mem::MainMemory memory;
  noc::IdealNetwork net{ctx, 1};
  coh::ProtocolParams params{};
  coh::DirectoryController dir;
  std::array<FakeL1, 4> l1s;

  DirHarness() : dir(ctx, net, memory, coh::ProtocolParams{}, 32) {
    for (CoreId c = 0; c < 4; ++c) dir.connectL1(c, &l1s[static_cast<std::size_t>(c)]);
  }

  void sendToDir(Msg m) {
    dir.onMessage(m);  // direct injection: timing handled by the dir itself
  }
  void drain() { engine.queue().runUntilDrained(100000); }

  Msg req(MsgType t, LineAddr line, CoreId from, bool isTx = false) {
    Msg m;
    m.type = t;
    m.line = line;
    m.from = from;
    m.req.core = from;
    m.req.isTx = isTx;
    m.req.wantsExclusive = t == MsgType::GetX;
    return m;
  }
};

TEST(Directory, ColdGetSGrantsExclusiveAndWaitsForUnblock) {
  DirHarness h;
  h.memory.writeWord(byteOf(5), 77);
  h.sendToDir(h.req(MsgType::GetS, 5, 0));
  h.drain();
  const Msg data = h.l1s[0].expect(MsgType::DataE);
  EXPECT_EQ(data.data[0], 77u);
  EXPECT_TRUE(h.dir.snapshot(5).busy);
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.drain();
  EXPECT_FALSE(h.dir.snapshot(5).busy);
  EXPECT_EQ(h.dir.snapshot(5).owner, 0);
}

TEST(Directory, SecondRequestQueuesBehindBusyLine) {
  DirHarness h;
  h.sendToDir(h.req(MsgType::GetS, 5, 0));
  h.sendToDir(h.req(MsgType::GetS, 5, 1));  // queued: line busy
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  EXPECT_TRUE(h.l1s[1].inbox.empty()) << "second request must wait";
  // The queued request is one depth-1 sample of the wait-queue histogram.
  const stats::StatSnapshot snap = h.ctx.stats().snapshot();
  const stats::SnapshotEntry* depth = snap.find("dir.waitq.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, stats::StatKind::Histogram);
  EXPECT_EQ(depth->count, 1u);
  EXPECT_EQ(depth->sum, 1u);
  EXPECT_EQ(depth->buckets, (std::vector<std::pair<unsigned, std::uint64_t>>{{1u, 1u}}));
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.drain();
  // Now the queued GetS is processed: owner 0 gets a FwdGetS.
  const Msg fwd = h.l1s[0].expect(MsgType::FwdGetS);
  EXPECT_EQ(fwd.req.core, 1);
}

TEST(Directory, FwdAckWithDataUpdatesLlcAndShares) {
  DirHarness h;
  h.sendToDir(h.req(MsgType::GetS, 5, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.sendToDir(h.req(MsgType::GetS, 5, 1));
  h.drain();
  h.l1s[0].expect(MsgType::FwdGetS);
  Msg ack;
  ack.type = MsgType::FwdAck;
  ack.line = 5;
  ack.from = 0;
  ack.keptCopy = true;
  ack.hasData = true;
  ack.data[0] = 123;
  h.sendToDir(ack);
  h.drain();
  const Msg data = h.l1s[1].expect(MsgType::DataS);
  EXPECT_EQ(data.data[0], 123u);
  EXPECT_EQ(h.dir.llcData(5)[0], 123u);
  h.sendToDir(h.req(MsgType::Unblock, 5, 1));
  h.drain();
  const auto snap = h.dir.snapshot(5);
  EXPECT_EQ(snap.owner, kNoCore);
  EXPECT_EQ(snap.sharers.size(), 2u);
}

TEST(Directory, FwdAckTxInvGrantsExclusiveFromLlc) {
  DirHarness h;
  h.memory.writeWord(byteOf(5), 9);
  h.sendToDir(h.req(MsgType::GetS, 5, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.sendToDir(h.req(MsgType::GetS, 5, 1));
  h.drain();
  h.l1s[0].expect(MsgType::FwdGetS);
  Msg nack;
  nack.type = MsgType::FwdAckTxInv;  // Fig 3: owner self-invalidated
  nack.line = 5;
  nack.from = 0;
  h.sendToDir(nack);
  h.drain();
  const Msg data = h.l1s[1].expect(MsgType::DataE);  // exclusive, per Fig 3
  EXPECT_EQ(data.data[0], 9u);
  h.sendToDir(h.req(MsgType::Unblock, 5, 1));
  h.drain();
  EXPECT_EQ(h.dir.snapshot(5).owner, 1);
}

TEST(Directory, FwdRejectRestoresStableStateAndRejectsRequester) {
  DirHarness h;
  h.sendToDir(h.req(MsgType::GetX, 5, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.sendToDir(h.req(MsgType::GetX, 5, 1, /*isTx=*/true));
  h.drain();
  h.l1s[0].expect(MsgType::FwdGetX);
  Msg rej;
  rej.type = MsgType::FwdReject;
  rej.line = 5;
  rej.from = 0;
  rej.rejectHint = AbortCause::MemConflict;
  h.sendToDir(rej);
  h.drain();
  const Msg resp = h.l1s[1].expect(MsgType::RejectResp);
  EXPECT_EQ(resp.rejectHint, AbortCause::MemConflict);
  EXPECT_EQ(h.dir.snapshot(5).owner, 0) << "owner unchanged after reject";
  EXPECT_FALSE(h.dir.snapshot(5).busy) << "no unblock needed after reject";
}

TEST(Directory, InvCollectionWithMixedAckAndReject) {
  DirHarness h;
  // Build S{0,1,2} by three readers.
  for (CoreId c = 0; c < 3; ++c) {
    h.sendToDir(h.req(MsgType::GetS, 5, c));
    h.drain();
    if (c == 0) {
      h.l1s[0].expect(MsgType::DataE);
    } else if (c == 1) {
      // Owner 0 gets a FwdGetS; it complies keeping a copy.
      h.l1s[0].expect(MsgType::FwdGetS);
      Msg ack;
      ack.type = MsgType::FwdAck;
      ack.line = 5;
      ack.from = 0;
      ack.keptCopy = true;
      h.sendToDir(ack);
      h.drain();
      h.l1s[1].expect(MsgType::DataS);
    } else {
      h.l1s[2].expect(MsgType::DataS);
    }
    h.sendToDir(h.req(MsgType::Unblock, 5, c));
    h.drain();
  }
  ASSERT_EQ(h.dir.snapshot(5).sharers.size(), 3u);

  // Core 3 wants exclusive: Invs go to 0,1,2; core 1 rejects.
  h.sendToDir(h.req(MsgType::GetX, 5, 3, /*isTx=*/true));
  h.drain();
  h.l1s[0].expect(MsgType::Inv);
  h.l1s[1].expect(MsgType::Inv);
  h.l1s[2].expect(MsgType::Inv);
  Msg a0;
  a0.type = MsgType::InvAck;
  a0.line = 5;
  a0.from = 0;
  h.sendToDir(a0);
  Msg r1;
  r1.type = MsgType::InvReject;
  r1.line = 5;
  r1.from = 1;
  r1.rejectHint = AbortCause::MemConflict;
  h.sendToDir(r1);
  Msg a2;
  a2.type = MsgType::InvAck;
  a2.line = 5;
  a2.from = 2;
  h.sendToDir(a2);
  h.drain();
  h.l1s[3].expect(MsgType::RejectResp);
  const auto snap = h.dir.snapshot(5);
  EXPECT_EQ(snap.sharers.count(1), 1u) << "rejecting sharer keeps its copy";
  EXPECT_EQ(snap.sharers.count(0), 0u) << "complying sharers are gone";
  EXPECT_EQ(snap.sharers.count(2), 0u);
  EXPECT_FALSE(snap.busy);
}

TEST(Directory, StalePutMIsAckedAndIgnored) {
  DirHarness h;
  // Owner 0, then ownership moves to 1 via a forward.
  h.sendToDir(h.req(MsgType::GetX, 5, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.sendToDir(h.req(MsgType::GetX, 5, 1));
  h.drain();
  h.l1s[0].expect(MsgType::FwdGetX);
  Msg ack;
  ack.type = MsgType::FwdAck;
  ack.line = 5;
  ack.from = 0;
  ack.hasData = true;
  ack.data[0] = 50;
  h.sendToDir(ack);
  h.drain();
  h.l1s[1].expect(MsgType::DataE);
  h.sendToDir(h.req(MsgType::Unblock, 5, 1));
  h.drain();
  // Now a stale PutM from core 0 arrives (e.g. it was in its WB buffer).
  Msg put;
  put.type = MsgType::PutM;
  put.line = 5;
  put.from = 0;
  put.hasData = true;
  put.data[0] = 999;  // stale data must NOT reach the LLC
  h.sendToDir(put);
  h.drain();
  h.l1s[0].expect(MsgType::PutAck);
  EXPECT_EQ(h.dir.llcData(5)[0], 50u);
  EXPECT_EQ(h.dir.snapshot(5).owner, 1);
}

TEST(Directory, TxAbortInvClearsOwnerWhenIdle) {
  DirHarness h;
  h.sendToDir(h.req(MsgType::GetX, 5, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.drain();
  Msg inv;
  inv.type = MsgType::TxAbortInv;
  inv.line = 5;
  inv.from = 0;
  h.sendToDir(inv);
  h.drain();
  EXPECT_EQ(h.dir.snapshot(5).owner, kNoCore);
}

TEST(Directory, HlaGrantDenyAndQueue) {
  DirHarness h;
  Msg tl;
  tl.type = MsgType::HlaReq;
  tl.line = 0;
  tl.from = 0;
  tl.hlaMode = TxMode::TL;
  h.sendToDir(tl);
  h.drain();
  h.l1s[0].expect(MsgType::HlaGrant);

  Msg stl = tl;
  stl.from = 1;
  stl.hlaMode = TxMode::STL;
  h.sendToDir(stl);
  h.drain();
  h.l1s[1].expect(MsgType::HlaDeny);

  Msg tl2 = tl;
  tl2.from = 2;
  h.sendToDir(tl2);
  h.drain();
  EXPECT_TRUE(h.l1s[2].inbox.empty()) << "TL queues";

  Msg clr;
  clr.type = MsgType::SigClear;
  clr.line = 0;
  clr.from = 0;
  h.sendToDir(clr);
  h.drain();
  h.l1s[2].expect(MsgType::HlaGrant);
}

TEST(Directory, SignatureRejectRecordsWaiterAndWakesOnClear) {
  DirHarness h;
  Msg tl;
  tl.type = MsgType::HlaReq;
  tl.from = 0;
  tl.hlaMode = TxMode::TL;
  h.sendToDir(tl);
  h.drain();
  h.l1s[0].expect(MsgType::HlaGrant);
  // Holder spills line 5 (write set).
  Msg sig;
  sig.type = MsgType::SigAdd;
  sig.line = 5;
  sig.from = 0;
  sig.sigIsWrite = true;
  h.sendToDir(sig);
  // Core 1 requests the spilled line -> signature reject.
  h.sendToDir(h.req(MsgType::GetS, 5, 1));
  h.drain();
  h.l1s[1].expect(MsgType::RejectResp);
  EXPECT_EQ(h.dir.sigRejects(), 1u);
  // hlend: waiter is woken.
  Msg clr;
  clr.type = MsgType::SigClear;
  clr.from = 0;
  h.sendToDir(clr);
  h.drain();
  const Msg wake = h.l1s[1].expect(MsgType::Wakeup);
  EXPECT_EQ(wake.line, 5u);
}

TEST(Directory, SigAddRemovesHolderFromSharerBookkeeping) {
  DirHarness h;
  h.sendToDir(h.req(MsgType::GetX, 5, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.drain();
  Msg sig;
  sig.type = MsgType::SigAdd;
  sig.line = 5;
  sig.from = 0;
  sig.sigIsWrite = true;
  sig.hasData = true;
  sig.data[0] = 31;
  h.sendToDir(sig);
  h.drain();
  h.l1s[0].expect(MsgType::PutAck);  // carried data: WB buffer must retire
  EXPECT_EQ(h.dir.snapshot(5).owner, kNoCore);
  EXPECT_EQ(h.dir.llcData(5)[0], 31u);
}

TEST(Directory, WarmUpKeepsNoPerLineState) {
  DirHarness h;
  h.memory.attachStats(h.ctx.stats());
  const LineAddr from = 1000;
  const LineAddr to = from + (LineAddr{1} << 24);
  h.memory.writeWord(byteOf(from + 5), 3);
  const std::size_t touched = h.memory.touchedLines();
  h.dir.preloadLlc(from, to);
  EXPECT_EQ(h.memory.touchedLines(), touched);
  EXPECT_EQ(h.ctx.stats().snapshot().value("mem.line_reads"), to - from);
  EXPECT_TRUE(h.dir.llcHas(from));
  EXPECT_TRUE(h.dir.llcHas(to - 1));
  EXPECT_FALSE(h.dir.llcHas(from - 1));
  EXPECT_FALSE(h.dir.llcHas(to));
  EXPECT_EQ(h.dir.llcData(from + 5)[0], 3u);  // warmed from memory's copy
}

TEST(Directory, WritebacksLandInTheOneStoreWithoutDramWrites) {
  DirHarness h;
  h.memory.attachStats(h.ctx.stats());
  auto reads = [&] { return h.ctx.stats().snapshot().value("mem.line_reads"); };
  auto expectLine = [&](std::uint64_t v) {
    EXPECT_EQ(h.dir.llcData(5)[0], v);
    EXPECT_EQ(h.memory.readWord(byteOf(5)), v);  // the verify reader's fallback
  };

  h.sendToDir(h.req(MsgType::GetX, 5, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  EXPECT_EQ(reads(), 1u) << "a cold fill reads DRAM once";
  h.sendToDir(h.req(MsgType::Unblock, 5, 0));
  h.drain();

  Msg put;
  put.type = MsgType::PutM;
  put.line = 5;
  put.from = 0;
  put.hasData = true;
  put.data[0] = 11;
  h.sendToDir(put);
  h.drain();
  h.l1s[0].expect(MsgType::PutAck);
  expectLine(11);

  h.sendToDir(h.req(MsgType::GetX, 5, 1));
  h.drain();
  EXPECT_EQ(h.l1s[1].expect(MsgType::DataE).data[0], 11u);
  h.sendToDir(h.req(MsgType::Unblock, 5, 1));
  h.sendToDir(h.req(MsgType::GetS, 5, 2));
  h.drain();
  h.l1s[1].expect(MsgType::FwdGetS);
  Msg ack;
  ack.type = MsgType::FwdAck;
  ack.line = 5;
  ack.from = 1;
  ack.hasData = true;
  ack.data[0] = 22;
  h.sendToDir(ack);
  h.drain();
  EXPECT_EQ(h.l1s[2].expect(MsgType::DataS).data[0], 22u);
  expectLine(22);
  h.sendToDir(h.req(MsgType::Unblock, 5, 2));
  h.drain();

  Msg sig;
  sig.type = MsgType::SigAdd;
  sig.line = 5;
  sig.from = 2;
  sig.hasData = true;
  sig.data[0] = 33;
  h.sendToDir(sig);
  h.drain();
  h.l1s[2].expect(MsgType::PutAck);
  expectLine(33);

  Msg wb;
  wb.type = MsgType::WbClean;
  wb.line = 5;
  wb.from = 0;
  wb.data[0] = 44;
  h.sendToDir(wb);
  h.drain();
  expectLine(44);

  EXPECT_EQ(reads(), 1u);
  EXPECT_EQ(h.dir.llcMisses(), 1u);
}

TEST(Directory, ColdMissPaysMemoryLatency) {
  DirHarness h;
  const Cycle t0 = h.engine.now();
  h.sendToDir(h.req(MsgType::GetS, 7, 0));
  h.drain();
  h.l1s[0].expect(MsgType::DataE);
  const Cycle cold = h.engine.now() - t0;
  h.sendToDir(h.req(MsgType::Unblock, 7, 0));
  h.drain();
  EXPECT_GE(cold, h.params.llcLatency + h.params.memLatency);

  h.dir.preloadLlc(8, 9);
  const Cycle t1 = h.engine.now();
  h.sendToDir(h.req(MsgType::GetS, 8, 1));
  h.drain();
  h.l1s[1].expect(MsgType::DataE);
  EXPECT_LT(h.engine.now() - t1, h.params.llcLatency + h.params.memLatency);
}

}  // namespace
}  // namespace lktm::test
