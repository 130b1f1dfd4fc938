#include "workloads/workload.hpp"

#include <sstream>
#include <stdexcept>

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
    privCounters_.push_back(space_.allocLines(1));
  }
  setup(memory, nthreads);
}

cpu::Program StampWorkloadBase::buildProgram(unsigned tid, unsigned nthreads,
                                             tm::Backend& backend) {
  if (!initialized_) throw std::logic_error("init() must run before buildProgram()");
  cpu::ProgramBuilder b;
  backend.emitProgramStart(b, tid, nthreads);
  b.li(kRegTid, static_cast<std::int64_t>(tid + 1));
  b.mark(TimeCat::NonTran);
  b.compute(static_cast<std::int64_t>(startupCompute(tid)));

  const unsigned total = totalTransactions(nthreads);
  // Fixed total work, statically partitioned like STAMP's thread loops.
  const unsigned lo = total * tid / nthreads;
  const unsigned hi = total * (tid + 1) / nthreads;
  sim::Rng rng = makeRng(0x5157ull * (tid + 1));
  for (unsigned t = lo; t < hi; ++t) {
    const TxDesc d = genTx(rng, tid, nthreads, t);
    emitTx(b, d, tid, backend);
  }
  b.barrier();
  b.halt();
  return b.build();
}

void StampWorkloadBase::emitTx(cpu::ProgramBuilder& b, const TxDesc& d,
                               unsigned tid, tm::Backend& backend) {
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

std::vector<std::string> stampNames() {
  return {"genome",  "intruder", "kmeans+",   "kmeans-",   "labyrinth",
          "ssca2",   "vacation+", "vacation-", "yada"};
}

std::unique_ptr<Workload> makeStamp(const std::string& name, std::uint64_t seed) {
  if (name == "genome") return makeGenome(seed);
  if (name == "intruder") return makeIntruder(seed);
  if (name == "kmeans+") return makeKmeans(true, seed);
  if (name == "kmeans-") return makeKmeans(false, seed);
  if (name == "labyrinth") return makeLabyrinth(seed);
  if (name == "ssca2") return makeSsca2(seed);
  if (name == "vacation+") return makeVacation(true, seed);
  if (name == "vacation-") return makeVacation(false, seed);
  if (name == "yada") return makeYada(seed);
  throw std::invalid_argument("unknown STAMP workload: " + name);
}

}  // namespace lktm::wl
