#include "verify/harness.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lktm::verify {

const char* toString(OpKind k) {
  switch (k) {
    case OpKind::TxBegin: return "TxBegin";
    case OpKind::Load: return "Load";
    case OpKind::Store: return "Store";
    case OpKind::Commit: return "Commit";
    case OpKind::HlBegin: return "HlBegin";
    case OpKind::HlEnd: return "HlEnd";
  }
  return "?";
}

namespace {

/// Shrunk latencies: every cycle of separation multiplies the interleaving
/// tree, so the model configs compress all fixed delays to 1-3 cycles. The
/// protocol logic is latency-independent; only the state-space size changes.
coh::ProtocolParams modelProtocolParams() {
  coh::ProtocolParams p;
  p.l1HitLatency = 1;
  p.llcLatency = 1;
  p.memLatency = 2;
  p.commitLatency = 1;
  p.hlLatency = 1;
  p.retryDelay = 3;
  p.nonTxRetryDelay = 3;
  p.mshrCapacity = 4;
  return p;
}

core::TmPolicy recoveryWaitWakeup() {
  core::TmPolicy p;
  p.conflict = core::ConflictPolicy::Recovery;
  p.rejectAction = core::RejectAction::WaitWakeup;
  p.priority = core::PriorityKind::InstsBased;
  return p;
}

std::vector<ProgOp> incrementTxn(LineAddr line, std::uint64_t value) {
  return {{OpKind::TxBegin}, {OpKind::Load, line}, {OpKind::Store, line, value},
          {OpKind::Commit}};
}

}  // namespace

std::optional<ModelConfig> namedConfig(const std::string& name) {
  ModelConfig cfg;
  cfg.name = name;
  cfg.protocol = modelProtocolParams();
  cfg.policy = recoveryWaitWakeup();
  if (name == "2c1l") {
    // Two cores increment the same line: the canonical conflict kernel.
    cfg.cores = 2;
    cfg.programs = {incrementTxn(1, 10), incrementTxn(1, 20)};
    return cfg;
  }
  if (name == "2c2l-cycle") {
    // Opposite-order writes over two lines under WaitWakeup: the schedule
    // shape that would deadlock if rejects could form a cycle. The priority
    // total order (III-A) must break it on every interleaving.
    cfg.cores = 2;
    cfg.programs = {
        {{OpKind::TxBegin}, {OpKind::Store, 1, 11}, {OpKind::Store, 2, 12},
         {OpKind::Commit}},
        {{OpKind::TxBegin}, {OpKind::Store, 2, 21}, {OpKind::Store, 1, 22},
         {OpKind::Commit}},
    };
    return cfg;
  }
  if (name == "3c1l") {
    // Three cores on one line: wakeups race responder aborts and commits.
    cfg.cores = 3;
    cfg.programs = {incrementTxn(1, 10), incrementTxn(1, 20), incrementTxn(1, 30)};
    return cfg;
  }
  if (name == "3c2l") {
    // Mixed readers and writers over two lines (the CI soak config).
    cfg.cores = 3;
    cfg.programs = {
        {{OpKind::TxBegin}, {OpKind::Store, 1, 11}, {OpKind::Store, 2, 12},
         {OpKind::Commit}},
        {{OpKind::TxBegin}, {OpKind::Store, 2, 21}, {OpKind::Store, 1, 22},
         {OpKind::Commit}},
        {{OpKind::TxBegin}, {OpKind::Load, 1}, {OpKind::Commit}},
    };
    return cfg;
  }
  if (name == "2c2l-cycle-2b") {
    // The deadlock-shaped two-line config with the directory split into two
    // banks: line 1 homes on bank 1, line 2 on bank 0, so the conflicting
    // stores (and their rejects/wakeups) cross bank boundaries.
    ModelConfig base = *namedConfig("2c2l-cycle");
    base.name = name;
    base.banks = 2;
    return base;
  }
  if (name == "3c2l-2b") {
    // The mixed reader/writer soak config over two banks. This is the 2-bank
    // bug-detection canary: a reader shares line 1 while writers upgrade it,
    // so --inject-bug swmr-skip-inv is caught here even with the lines homed
    // on different banks.
    ModelConfig base = *namedConfig("3c2l");
    base.name = name;
    base.banks = 2;
    return base;
  }
  if (name == "tl-overflow-2b") {
    // TL overflow over a banked directory: the spill set {1, 3} homes on
    // bank 1 while line 2 homes on bank 0, so a single TL acquisition must
    // set signatures via BankLockSet broadcast and the release must clear
    // and drain waiters in both banks (BankLockClear/BankClearAck) without
    // losing a wakeup.
    ModelConfig base = *namedConfig("tl-overflow");
    base.name = name;
    base.banks = 2;
    return base;
  }
  if (name == "stm-commit") {
    // The coherence footprint of a TL2-STM commit (runtime/backends/tl2.cpp)
    // racing a concurrent reader, scripted as plain non-transactional
    // accesses: line 1 is the global version clock, line 2 an orec, line 3
    // the guarded data word. The writer locks the orec (odd word), publishes
    // the data, bumps the clock, and releases the orec at the new version;
    // the reader samples clock / orec / data / orec — the TL2 validation
    // read sequence. Every interleaving must keep SWMR and coherence over
    // the mixed write-write/write-read sharing this traffic produces.
    cfg.cores = 2;
    cfg.programs = {
        {{OpKind::Store, 2, 3}, {OpKind::Store, 3, 42}, {OpKind::Store, 1, 1},
         {OpKind::Store, 2, 4}},
        {{OpKind::Load, 1}, {OpKind::Load, 2}, {OpKind::Load, 3},
         {OpKind::Load, 2}},
    };
    return cfg;
  }
  if (name == "tl-overflow") {
    // A TL lock transaction overflows a 2-line direct-mapped L1 (lines 1 and
    // 3 collide) while a peer HTM transaction keeps poking the spilled line:
    // exercises SigAdd spills, LLC signature rejects, and the wakeup drain at
    // hlEnd — including "overflow while a reject is pending".
    cfg.cores = 2;
    cfg.l1 = mem::CacheGeometry{2 * kLineBytes, 1};
    cfg.policy.htmLock = true;
    cfg.programs = {
        {{OpKind::HlBegin}, {OpKind::Store, 1, 11}, {OpKind::Store, 2, 12},
         {OpKind::Store, 3, 13}, {OpKind::HlEnd}},
        {{OpKind::TxBegin}, {OpKind::Store, 1, 21}, {OpKind::Commit}},
    };
    return cfg;
  }
  return std::nullopt;
}

std::vector<std::string> configNames() {
  return {"2c1l",          "2c2l-cycle", "3c1l",   "3c2l",
          "tl-overflow",   "stm-commit", "2c2l-cycle-2b", "3c2l-2b",
          "tl-overflow-2b"};
}

ModelHarness::ModelHarness(const ModelConfig& cfg)
    : cfg_(cfg),
      sys_(ctx_, {.cores = cfg.cores,
                  .nodes = cfg.cores,
                  .banks = cfg.banks,
                  .l1 = cfg.l1,
                  .protocol = cfg.protocol,
                  .policy = cfg.policy,
                  .idealNetwork = true,
                  .idealNetworkLatency = 1}),
      drivers_(cfg.cores) {
  if (cfg_.programs.size() != cfg_.cores) {
    throw std::invalid_argument("ModelConfig: one program per core required");
  }
  ctx_.setVerifyTap(&registry_);
  sys_.dir().injectBug(cfg_.bug);
  for (unsigned i = 0; i < cfg_.cores; ++i) {
    Driver& d = drivers_[i];
    d.harness = this;
    d.id = static_cast<CoreId>(i);
    sys_.l1(d.id).setCpuPort(d);
  }
}

ModelHarness::~ModelHarness() { ctx_.setVerifyTap(nullptr); }

void ModelHarness::start() {
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    // Seed each program through an event so step 0 competes with everything
    // else at cycle 1 under the oracle instead of running pre-simulation.
    const CoreId id = static_cast<CoreId>(c);
    const std::uint64_t gen = drivers_[c].gen;
    engine().schedule(1, [this, id, gen] {
      if (drivers_[static_cast<std::size_t>(id)].gen == gen) step(id);
    });
  }
}

void ModelHarness::step(CoreId c) {
  Driver& d = drivers_[static_cast<std::size_t>(c)];
  const auto& prog = cfg_.programs[static_cast<std::size_t>(c)];
  coh::L1Controller& l1c = sys_.l1(c);
  while (true) {
    if (d.pc >= prog.size()) {
      d.done = true;
      return;
    }
    const ProgOp& op = prog[d.pc];
    const std::uint64_t gen = d.gen;
    switch (op.kind) {
      case OpKind::TxBegin:
        d.attemptStart = d.pc;
        l1c.txBegin();
        ++d.pc;
        continue;  // synchronous; fall through to the next op
      case OpKind::Load:
        l1c.load(byteOf(op.line), [this, c, gen](std::uint64_t) { opDone(c, gen); });
        return;
      case OpKind::Store:
        l1c.store(byteOf(op.line), op.value, [this, c, gen] { opDone(c, gen); });
        return;
      case OpKind::Commit:
        l1c.txCommit([this, c, gen] { opDone(c, gen); });
        return;
      case OpKind::HlBegin:
        d.attemptStart = d.pc;
        l1c.hlBegin([this, c, gen] { opDone(c, gen); });
        return;
      case OpKind::HlEnd:
        l1c.hlEnd([this, c, gen] { opDone(c, gen); });
        return;
    }
  }
}

void ModelHarness::opDone(CoreId c, std::uint64_t gen) {
  Driver& d = drivers_[static_cast<std::size_t>(c)];
  if (d.gen != gen) return;  // completion from a squashed attempt
  ++d.insts;
  ++d.pc;
  step(c);
}

void ModelHarness::onAbort(CoreId c) {
  Driver& d = drivers_[static_cast<std::size_t>(c)];
  ++d.gen;
  ++d.aborts;
  d.insts = 0;
  d.pc = d.attemptStart;
  const std::uint64_t gen = d.gen;
  engine().schedule(1, [this, c, gen] {
    if (drivers_[static_cast<std::size_t>(c)].gen == gen) step(c);
  });
}

SystemView ModelHarness::view() const {
  SystemView v;
  v.dir = &sys_.dir();
  v.l1s = sys_.l1s();
  v.msgs = &registry_;
  v.priorityOf = [this](CoreId c) { return drivers_[static_cast<std::size_t>(c)].insts; };
  return v;
}

std::uint64_t ModelHarness::fingerprint() const {
  sim::StateHasher h;
  h.section(0x01);
  for (unsigned c = 0; c < sys_.cores(); ++c) sys_.l1(static_cast<CoreId>(c)).hashState(h);
  sys_.dir().hashState(h);

  // Pending events as a sorted multiset of (when - now) deltas. The delta
  // multiset (not absolute cycles) is what decides relative firing order.
  h.section(0x02);
  std::vector<Cycle> deltas;
  const Cycle now = ctx_.engine().now();
  ctx_.engine().queue().forEachPending(
      [&](Cycle when, std::uint64_t /*seq*/) { deltas.push_back(when - now); });
  std::sort(deltas.begin(), deltas.end());
  for (Cycle d : deltas) h.put(d);
  registry_.hashState(h);

  h.section(0x50);
  for (const Driver& d : drivers_) {
    h.put(d.pc);
    h.put(d.attemptStart);
    h.put(d.insts);
    h.putBool(d.done);
  }
  return h.digest();
}

bool ModelHarness::allDone() const {
  for (const Driver& d : drivers_) {
    if (!d.done) return false;
  }
  return true;
}

std::string ModelHarness::programStatus() const {
  std::ostringstream oss;
  for (std::size_t c = 0; c < drivers_.size(); ++c) {
    const Driver& d = drivers_[c];
    if (d.done) continue;
    const auto& prog = cfg_.programs[c];
    oss << "c" << c << " stuck at op " << d.pc << "/" << prog.size();
    if (d.pc < prog.size()) {
      oss << " (" << toString(prog[d.pc].kind) << " line=" << prog[d.pc].line << ")";
    }
    oss << " after " << d.aborts << " abort(s); "
        << sys_.l1(static_cast<CoreId>(c)).diagnostic() << "\n";
  }
  return oss.str();
}

}  // namespace lktm::verify
