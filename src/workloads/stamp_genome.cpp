// genome analog.
//
// STAMP's genome assembles DNA segments: phase 1 deduplicates segments via a
// hash set, phase 2 string-matches and links them. Transactions are of
// moderate length, read-mostly (probe the bucket chain, then insert), over a
// large hash table => low-to-moderate contention, negligible overflow.
#include "workloads/workload.hpp"

namespace lktm::wl {
namespace {

class GenomeWorkload final : public StampWorkloadBase {
 public:
  explicit GenomeWorkload(std::uint64_t seed) : StampWorkloadBase(seed) {}

  std::string name() const override { return "genome"; }

 protected:
  void setup(mem::MainMemory&, unsigned) override {
    buckets_ = space().allocLines(kBuckets);
    segments_ = space().allocLines(kSegments);
  }

  unsigned totalTransactions(unsigned) const override { return 320; }

  TxDesc genTx(sim::Rng& rng, unsigned, unsigned, unsigned) override {
    TxDesc d;
    d.computeInside = 30;
    d.gapAfter = 120 + rng.below(80);
    // Probe the bucket chain: 1-3 bucket lines read.
    const std::uint64_t b0 = rng.below(kBuckets);
    const unsigned chain = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned i = 0; i < chain; ++i) {
      d.accesses.push_back({lineAddr(buckets_, (b0 + i) % kBuckets), Access::Kind::Read});
    }
    // Read a handful of candidate segments (string comparison).
    const unsigned nseg = 3 + static_cast<unsigned>(rng.below(4));
    for (unsigned i = 0; i < nseg; ++i) {
      d.accesses.push_back({lineAddr(segments_, rng.below(kSegments)), Access::Kind::Read});
    }
    // Insert: append to the bucket (1 increment), occasionally also link a
    // segment record (second increment).
    d.accesses.push_back({lineAddr(buckets_, b0), Access::Kind::Increment});
    if (rng.percent(35)) {
      d.accesses.push_back({lineAddr(segments_, rng.below(kSegments)), Access::Kind::Increment});
    }
    return d;
  }

 private:
  static constexpr std::uint64_t kBuckets = 2048;
  static constexpr std::uint64_t kSegments = 4096;
  Addr buckets_ = 0;
  Addr segments_ = 0;

  static Addr lineAddr(Addr base, std::uint64_t idx) { return base + idx * kLineBytes; }
};

}  // namespace

std::unique_ptr<Workload> makeGenome(std::uint64_t seed) {
  return std::make_unique<GenomeWorkload>(seed);
}

}  // namespace lktm::wl
