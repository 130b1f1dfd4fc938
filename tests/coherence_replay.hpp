// Deterministic replay scenarios for the coherence datapath. The scripted
// directory scenario and the full-simulation fingerprint below were recorded
// against the PR-1 (node-based std::map/std::set/unordered_map) containers;
// tests/test_coherence_determinism.cpp replays them against the current tree
// and requires byte-identical traces, which pins the flat-container rework to
// the exact observable behaviour of the structures it replaced.
#pragma once

#include <array>
#include <sstream>
#include <string>

#include "coherence/directory.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "noc/ideal.hpp"
#include "sim/context.hpp"
#include "workloads/micro.hpp"

namespace lktm::test {

/// Scripted L1 endpoint: appends every received message to a shared trace and
/// answers the directory immediately (Unblock / InvAck / FwdAck), so the
/// scenario below exercises forward chains and invalidation fan-out without a
/// real L1.
struct ReplayL1 final : coh::MsgSink {
  coh::DirectoryController* dir = nullptr;
  CoreId id = 0;
  std::string* trace = nullptr;

  void onMessage(const coh::Msg& m) override {
    std::ostringstream line;
    line << "c" << id << " rx " << coh::toString(m.type) << " line=" << m.line
         << " from=" << m.from;
    if (m.hasData) line << " d0=" << m.data[0];
    if (m.keptCopy) line << " kept";
    if (m.rejectHint != AbortCause::None) line << " hint=" << toString(m.rejectHint);
    line << "\n";
    *trace += line.str();

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
        return;  // PutAck / RejectResp / Wakeup / Hla* need no answer
    }
    dir->onMessage(r);
  }
};

/// Directed directory scenario covering fills, forward chains, invalidation
/// fan-out, writebacks, abort invalidations, the HTMLock signature flows, and
/// the wakeup drain. The line set {5, 69, 133, 4101} is adversarial for an
/// open-addressed table: the addresses collide modulo every power-of-two
/// bucket count up to 64, forcing long probe chains and backward-shift
/// deletions while the golden trace pins the externally visible order.
///
/// With `banks` > 1 the same script runs against an interleaved directory:
/// the odd lines (and the HTMLock spill set) home on bank 1 while the HlaReq
/// / SigClear control line 0 homes on bank 0, so the lock set/clear
/// broadcasts and the cross-bank wakeup drain are all on the recorded path.
inline std::string directoryReplayTrace(unsigned banks = 1) {
  constexpr std::array<LineAddr, 6> kLines{5, 69, 133, 4101, 1, 2};
  std::string trace;
  sim::SimContext ctx;
  noc::IdealNetwork net(ctx, 1);
  mem::MainMemory memory;
  for (LineAddr l : kLines) memory.writeWord(byteOf(l), 1000 + l);
  coh::DirectoryController dir(ctx, net, memory, coh::ProtocolParams{}, 4, banks);
  std::array<ReplayL1, 4> l1s;
  for (CoreId c = 0; c < 4; ++c) {
    auto& l1 = l1s[static_cast<std::size_t>(c)];
    l1.dir = &dir;
    l1.id = c;
    l1.trace = &trace;
    dir.connectL1(c, &l1);
  }
  auto req = [](coh::MsgType t, LineAddr line, CoreId from) {
    coh::Msg m;
    m.type = t;
    m.line = line;
    m.from = from;
    m.req.core = from;
    m.req.wantsExclusive = t == coh::MsgType::GetX;
    return m;
  };
  auto drain = [&] { ctx.queue().runUntilDrained(1'000'000); };

  // Phase 1: cold fills, then sharer growth through the forward chain.
  trace += "== phase 1: fills and sharers\n";
  for (LineAddr l : kLines) {
    for (CoreId c = 0; c < 3; ++c) {
      dir.onMessage(req(coh::MsgType::GetS, l, c));
      drain();
    }
  }

  // Phase 2: exclusive requests trigger Inv fan-out over the sharer masks.
  trace += "== phase 2: invalidation fan-out\n";
  for (LineAddr l : {LineAddr{5}, LineAddr{4101}}) {
    dir.onMessage(req(coh::MsgType::GetX, l, 3));
    drain();
  }

  // Phase 3: several lines busy at once; the diagnostic's ordered walk over
  // the pending table must list them in ascending line order.
  trace += "== phase 3: busy-line diagnostic\n";
  dir.onMessage(req(coh::MsgType::GetS, 4101, 0));
  dir.onMessage(req(coh::MsgType::GetS, 5, 0));
  dir.onMessage(req(coh::MsgType::GetS, 133, 0));
  trace += dir.diagnostic() + "\n";
  drain();

  // Phase 4: dirty writeback, stale PutM, abort invalidation, clean flush.
  trace += "== phase 4: writebacks and aborts\n";
  dir.onMessage(req(coh::MsgType::GetX, 2, 1));
  drain();
  coh::Msg put = req(coh::MsgType::PutM, 2, 1);
  put.hasData = true;
  put.data[0] = 777;
  dir.onMessage(put);
  drain();
  dir.onMessage(req(coh::MsgType::GetX, 1, 0));
  drain();
  coh::Msg wbc = req(coh::MsgType::WbClean, 1, 0);
  wbc.hasData = true;
  wbc.data[0] = 888;
  dir.onMessage(wbc);
  dir.onMessage(req(coh::MsgType::TxAbortInv, 1, 0));
  drain();

  // Phase 5: HTMLock signatures — spills, rejects, waiters, wakeup drain.
  trace += "== phase 5: HTMLock signatures\n";
  coh::Msg tl = req(coh::MsgType::HlaReq, 0, 0);
  tl.hlaMode = TxMode::TL;
  dir.onMessage(tl);
  drain();
  coh::Msg spill = req(coh::MsgType::SigAdd, 5, 0);
  spill.sigIsWrite = true;
  spill.hasData = true;
  spill.data[0] = 999;
  dir.onMessage(spill);
  dir.onMessage(req(coh::MsgType::SigAdd, 69, 0));
  dir.onMessage(req(coh::MsgType::SigAdd, 4101, 0));
  drain();
  dir.onMessage(req(coh::MsgType::GetS, 5, 1));  // write-sig hit: reject
  drain();
  dir.onMessage(req(coh::MsgType::GetS, 5, 2));  // second waiter on line 5
  drain();
  dir.onMessage(req(coh::MsgType::GetX, 69, 3));  // read-sig hit + exclusive
  drain();
  dir.onMessage(req(coh::MsgType::GetS, 69, 1));  // read-sig hit, copies exist
  drain();
  coh::Msg tl1 = req(coh::MsgType::HlaReq, 0, 1);
  tl1.hlaMode = TxMode::TL;
  dir.onMessage(tl1);  // queued behind holder 0
  coh::Msg stl2 = req(coh::MsgType::HlaReq, 0, 2);
  stl2.hlaMode = TxMode::STL;
  dir.onMessage(stl2);  // denied while TL active
  drain();
  dir.onMessage(req(coh::MsgType::SigClear, 0, 0));  // wakeups + grant to c1
  drain();
  dir.onMessage(req(coh::MsgType::SigClear, 0, 1));
  drain();

  // Final state: snapshots (sharer masks print in ascending core order) and
  // the datapath counters.
  trace += "== final state\n";
  for (LineAddr l : kLines) {
    const auto snap = dir.snapshot(l);
    std::ostringstream line;
    line << "line " << l << " owner=" << snap.owner << " sharers=[";
    bool first = true;
    for (CoreId c = 0; c < 4; ++c) {
      if (snap.sharers.count(c) != 0) {
        if (!first) line << ",";
        line << c;
        first = false;
      }
    }
    line << "] busy=" << (snap.busy ? 1 : 0) << "\n";
    trace += line.str();
  }
  std::ostringstream tail;
  tail << "llcHits=" << dir.llcHits() << " llcMisses=" << dir.llcMisses()
       << " writebacks=" << dir.writebacks() << " sigRejects=" << dir.sigRejects()
       << " busyLines=" << dir.busyLines() << "\n";
  trace += tail.str();
  return trace;
}

/// Stats fingerprint of a few full simulations (MSHR, wakeup tables, L1
/// shadow sets, and the directory all in the loop). Cycle counts are exact:
/// any container swap that changes iteration order or timing shows up here.
inline std::string fullSimFingerprint() {
  struct Case {
    const char* system;
    const char* workload;
    unsigned threads;
  };
  const std::array<Case, 3> cases{{
      {"LockillerTM", "counter", 4},
      {"Baseline", "counter", 4},
      {"LockillerTM", "vacation+", 8},
  }};
  std::string out;
  for (const auto& c : cases) {
    cfg::RunConfig rc;
    rc.system = cfg::systemByName(c.system);
    rc.threads = c.threads;
    const auto r = cfg::runSimulation(rc, [&]() {
      if (std::string(c.workload) == "counter") return wl::makeCounter(8, 2, 128);
      return cfg::makeJobWorkload(c.workload, 11);
    });
    std::ostringstream line;
    line << c.system << "/" << c.workload << "/t" << c.threads
         << " cycles=" << r.cycles << " commits=" << r.htmCommits() << "/"
         << r.lockCommits() << "/" << r.stlCommits() << " aborts=" << r.aborts()
         << " rejects=" << r.rejectsSent() << " wakeups=" << r.wakeupsSent()
         << " sig=" << r.sigRejects() << " llc=" << r.llcHits() << "/"
         << r.llcMisses() << " wb=" << r.writebacks()
         << " msgs=" << r.messages() << " ok=" << (r.ok() ? 1 : 0) << "\n";
    out += line.str();
  }
  return out;
}

}  // namespace lktm::test
