#include "workloads/workload.hpp"

#include <sstream>
#include <stdexcept>

#include "workloads/db_traffic.hpp"
#include "workloads/micro.hpp"

namespace lktm::wl {

namespace {
// Workload body registers (r1-r5; see the register table in backend.hpp).
constexpr unsigned kRegAddr = 1;
constexpr unsigned kRegVal = 2;
constexpr unsigned kRegPriv = 3;
constexpr unsigned kRegTid = 4;
}  // namespace

void StampWorkloadBase::init(mem::MainMemory& memory, unsigned nthreads) {
  if (initialized_) throw std::logic_error("workload already initialized");
  initialized_ = true;
  privCounters_.clear();
  for (unsigned t = 0; t < nthreads; ++t) {
    privCounters_.push_back(space().allocLines(1));
  }
  setup(memory, nthreads);
}

cpu::Program TxStreamWorkload::buildProgram(unsigned tid, unsigned nthreads,
                                            tm::Backend& backend) {
  cpu::ProgramBuilder b;
  backend.emitProgramStart(b, tid, nthreads);
  emitPrologue(b, tid);
  b.mark(TimeCat::NonTran);
  b.compute(static_cast<std::int64_t>(startupCompute(tid)));
  forEachShareTx(tid, nthreads, [&](sim::Rng& rng, unsigned t) {
    emitTx(b, rng, tid, nthreads, t, backend);
  });
  b.barrier();
  b.halt();
  return b.build();
}

void StampWorkloadBase::emitPrologue(cpu::ProgramBuilder& b, unsigned tid) {
  if (!initialized_) throw std::logic_error("init() must run before buildProgram()");
  b.li(kRegTid, static_cast<std::int64_t>(tid + 1));
}

void StampWorkloadBase::emitTx(cpu::ProgramBuilder& b, sim::Rng& rng,
                               unsigned tid, unsigned nthreads, unsigned txIndex,
                               tm::Backend& backend) {
  const TxDesc d = genTx(rng, tid, nthreads, txIndex);
  // Account the increments up front: the body lambda below must be pure
  // emission, because dual-path backends invoke it more than once.
  unsigned increments = 0;
  for (const Access& a : d.accesses) {
    if (a.kind == Access::Kind::Increment) {
      incrementCells_.insert(a.addr);
      ++increments;
      ++expectedTotal_;
    }
  }
  const std::size_t n = d.accesses.size();
  // Spread intra-tx computation between accesses.
  const Cycle perGap = n > 0 ? d.computeInside / n : d.computeInside;
  const std::size_t syscallAt = n > 0 ? n - 1 : 0;  // faults strike at the end:
                                                    // the whole attempt is wasted
  backend.emitTransaction(b, [&](cpu::ProgramBuilder& pb) {
    for (std::size_t i = 0; i < n; ++i) {
      const Access& a = d.accesses[i];
      switch (a.kind) {
        case Access::Kind::Read:
          backend.emitRead(pb, a.addr, kRegAddr, kRegVal);
          break;
        case Access::Kind::Write:
          backend.emitWrite(pb, a.addr, kRegAddr, kRegTid);
          break;
        case Access::Kind::Increment:
          backend.emitUpdate(pb, a.addr, kRegAddr, kRegVal, 1);
          break;
      }
      if (perGap > 0) pb.compute(static_cast<std::int64_t>(perGap));
      if (d.syscall && i == syscallAt) pb.syscall();
    }
    if (d.syscall && n == 0) pb.syscall();
    if (increments > 0) {
      // Private commit ledger, updated atomically with the shared increments.
      backend.emitUpdate(pb, privCounters_.at(tid), kRegPriv, kRegVal,
                         static_cast<std::int64_t>(increments));
    }
  });
  if (d.gapAfter > 0) b.compute(static_cast<std::int64_t>(d.gapAfter));
}

std::vector<std::string> StampWorkloadBase::verify(const WordReader& read,
                                                   unsigned nthreads) const {
  std::vector<std::string> out;
  std::uint64_t shared = 0;
  for (Addr a : incrementCells_) shared += read(a);
  std::uint64_t priv = 0;
  for (unsigned t = 0; t < nthreads && t < privCounters_.size(); ++t) {
    priv += read(privCounters_[t]);
  }
  if (shared != expectedTotal_) {
    std::ostringstream oss;
    oss << name() << ": shared increment sum " << shared << " != expected "
        << expectedTotal_ << " (atomicity violated or work lost)";
    out.push_back(oss.str());
  }
  if (priv != expectedTotal_) {
    std::ostringstream oss;
    oss << name() << ": private ledger sum " << priv << " != expected "
        << expectedTotal_;
    out.push_back(oss.str());
  }
  return out;
}

// The STAMP analogs' factories, one per stamp_*.cpp; only the table names them.
std::unique_ptr<Workload> makeGenome(std::uint64_t seed);
std::unique_ptr<Workload> makeIntruder(std::uint64_t seed);
std::unique_ptr<Workload> makeKmeans(bool highContention, std::uint64_t seed);
std::unique_ptr<Workload> makeLabyrinth(std::uint64_t seed);
std::unique_ptr<Workload> makeSsca2(std::uint64_t seed);
std::unique_ptr<Workload> makeVacation(bool highContention, std::uint64_t seed);
std::unique_ptr<Workload> makeYada(std::uint64_t seed);

namespace {

using Family = WorkloadRow::Family;

// Canonical parameterizations of the database and micro rows: small enough
// for smoke sweeps, skewed enough that the theta/mix knobs visibly move the
// latency tail.
constexpr WorkloadRow kTable[] = {
    {"genome", Family::Stamp, makeGenome},
    {"intruder", Family::Stamp, makeIntruder},
    {"kmeans+", Family::Stamp, [](std::uint64_t s) { return makeKmeans(true, s); }},
    {"kmeans-", Family::Stamp, [](std::uint64_t s) { return makeKmeans(false, s); }},
    {"labyrinth", Family::Stamp, makeLabyrinth},
    {"ssca2", Family::Stamp, makeSsca2},
    {"vacation+", Family::Stamp, [](std::uint64_t s) { return makeVacation(true, s); }},
    {"vacation-", Family::Stamp, [](std::uint64_t s) { return makeVacation(false, s); }},
    {"yada", Family::Stamp, makeYada},
    {"ycsb", Family::Db,
     [](std::uint64_t s) { return makeYcsb("ycsb", 1024, 0.99, 95, 0, 4, 0, 384, s); }},
    {"ycsb-lo", Family::Db,
     [](std::uint64_t s) { return makeYcsb("ycsb-lo", 1024, 0.5, 95, 0, 4, 0, 384, s); }},
    {"ycsb-w", Family::Db,
     [](std::uint64_t s) { return makeYcsb("ycsb-w", 1024, 0.99, 50, 0, 4, 0, 384, s); }},
    {"ycsb-scan", Family::Db,
     [](std::uint64_t s) {
       return makeYcsb("ycsb-scan", 1024, 0.99, 95, 30, 4, 16, 256, s);
     }},
    {"tpcc", Family::Db, [](std::uint64_t s) { return makeTpccLite(4, 2, 64, 128, 256, s); }},
    {"sps", Family::Db, [](std::uint64_t s) { return makeSps(false, 128, 512, s); }},
    {"sps-part", Family::Db, [](std::uint64_t s) { return makeSps(true, 128, 512, s); }},
    {"counter", Family::Micro, [](std::uint64_t s) { return makeCounter(4, 2, 256, s); }},
    {"bank", Family::Micro, [](std::uint64_t s) { return makeBank(64, 480, s); }},
    {"linkedlist", Family::Micro,
     [](std::uint64_t s) { return makeLinkedList(128, 6, 240, s); }},
};

std::vector<std::string> namesOf(Family family) {
  std::vector<std::string> out;
  for (const WorkloadRow& row : kTable) {
    if (row.family == family) out.emplace_back(row.name);
  }
  return out;
}

}  // namespace

std::span<const WorkloadRow> workloadTable() { return kTable; }

std::vector<std::string> stampNames() { return namesOf(Family::Stamp); }

const std::vector<std::string>& dbWorkloadNames() {
  static const std::vector<std::string> names = namesOf(Family::Db);
  return names;
}

}  // namespace lktm::wl
