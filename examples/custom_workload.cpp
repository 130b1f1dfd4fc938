// Custom-workload walkthrough: how a downstream user writes their own
// transactional workload against the public API — a shared work queue where
// producers push and consumers pop inside critical sections — using the
// ProgramBuilder assembler and the pluggable tm::Backend interface. The body
// lambda handed to emitTransaction must be pure emission: dual-path backends
// (hybrid) invoke it once per execution path.
//
// The built-in workloads live in one table, wl::workloadTable() (name ->
// factory from a seed), which cfg::makeJobWorkload, the sweeps and
// `lktm-sim --workload` look names up in. They all derive from
// wl::TxStreamWorkload, the one thread-program skeleton: a fixed total of
// transactions split statically across threads, each thread's share drawn
// from its own seeded stream, with only the per-transaction emitter left to
// the workload. This example implements wl::Workload directly instead, since
// its producers and consumers run a fixed count each rather than a share of
// a total, and hands its factory straight to cfg::runSimulation.
#include <cstdio>
#include <sstream>

#include "config/runner.hpp"
#include "config/systems.hpp"
#include "stats/report.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace lktm;

// A bounded ring of work items. Producers append (tail++), consumers take
// (head++); both counters live on one hot line, the slots on distinct lines.
class WorkQueueWorkload final : public wl::Workload {
 public:
  explicit WorkQueueWorkload(unsigned opsPerThread) : opsPerThread_(opsPerThread) {}

  std::string name() const override { return "work-queue"; }

  void init(mem::MainMemory&, unsigned) override {
    control_ = space_.allocLines(1);          // word0 = head, word1 = tail
    slots_ = space_.allocLines(kSlots);       // payload accumulator per slot
    doneCount_ = space_.allocLines(1);        // verification ledger
  }

  cpu::Program buildProgram(unsigned tid, unsigned nthreads,
                            tm::Backend& backend) override {
    const bool producer = tid % 2 == 0;
    cpu::ProgramBuilder b;
    backend.emitProgramStart(b, tid, nthreads);
    b.mark(TimeCat::NonTran);
    b.compute(static_cast<std::int64_t>(10 + 5 * tid));
    for (unsigned i = 0; i < opsPerThread_; ++i) {
      backend.emitTransaction(b, [&](cpu::ProgramBuilder& pb) {
        pb.li(1, static_cast<std::int64_t>(control_));
        if (producer) {
          backend.emitReadDyn(pb, 2, 1, 8);   // tail
          pb.addi(3, 2, 1);
          backend.emitWriteDyn(pb, 1, 3, 8);  // tail++
        } else {
          backend.emitReadDyn(pb, 2, 1, 0);   // head
          pb.addi(3, 2, 1);
          backend.emitWriteDyn(pb, 1, 3, 0);  // head++
        }
        // slot = (counter % kSlots); touch its payload. The slot address is
        // data-dependent, so this workload needs a backend with dynamic
        // addressing (lockiller/cgl).
        pb.li(4, kSlots);
        pb.rem(5, 2, 4);
        pb.li(4, kLineBytes);
        pb.mul(5, 5, 4);
        pb.li(4, static_cast<std::int64_t>(slots_));
        pb.add(5, 5, 4);
        backend.emitReadDyn(pb, 6, 5, 0);
        pb.addi(6, 6, 1);
        backend.emitWriteDyn(pb, 5, 6, 0);
        // ledger, updated atomically with the queue operation
        backend.emitUpdate(pb, doneCount_, 4, 6, 1);
      });
      b.compute(30);
    }
    b.barrier();
    b.halt();
    return b.build();
  }

  std::vector<std::string> verify(const wl::WordReader& read,
                                  unsigned nthreads) const override {
    std::vector<std::string> out;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(opsPerThread_) * nthreads;
    const std::uint64_t ledger = read(doneCount_);
    std::uint64_t slotSum = 0;
    for (unsigned s = 0; s < kSlots; ++s) slotSum += read(slots_ + s * kLineBytes);
    const std::uint64_t headPlusTail = read(control_) + read(control_ + 8);
    std::ostringstream oss;
    if (ledger != expected) {
      oss << "ledger " << ledger << " != " << expected;
      out.push_back(oss.str());
    }
    if (slotSum != expected) out.push_back("slot sum mismatch");
    if (headPlusTail != expected) out.push_back("head+tail mismatch");
    return out;
  }

  Addr footprintEnd() const override { return space_.used(); }

 private:
  static constexpr std::uint64_t kSlots = 32;
  unsigned opsPerThread_;
  wl::AddressSpace space_;
  Addr control_ = 0;
  Addr slots_ = 0;
  Addr doneCount_ = 0;
};

}  // namespace

int main() {
  using namespace lktm;
  std::printf("Custom workload (producer/consumer work queue), 8 threads:\n\n");
  stats::Table t({"system", "cycles", "commit rate", "stl commits", "ok"});
  for (const char* name : {"CGL", "Baseline", "Lockiller-RWI", "LockillerTM"}) {
    cfg::RunConfig rc;
    rc.system = cfg::systemByName(name);
    rc.threads = 8;
    const auto r =
        cfg::runSimulation(rc, [] { return std::make_unique<WorkQueueWorkload>(24); });
    t.addRow({r.system, std::to_string(r.cycles), stats::Table::pct(r.commitRate()),
              std::to_string(r.stlCommits()), r.ok() ? "yes" : "NO"});
    if (!r.ok()) std::printf("%s\n", r.str().c_str());
  }
  std::printf("%s\n", t.str().c_str());
  return 0;
}
