// Property/fuzz testing: randomly generated transactional workloads (random
// access mixes, contention levels, overflow-sized sets, exceptions) must
// preserve atomicity and coherence on EVERY Table II system, machine config
// and thread count. This is the widest net over protocol interleavings.
#include <gtest/gtest.h>

#include <sstream>

#include "config/runner.hpp"
#include "config/systems.hpp"
#include "workloads/workload.hpp"

namespace lktm::test {
namespace {

// A workload whose every transaction is randomized: length 1..60, random
// read/write/increment mix over a deliberately small hot region plus a large
// cold region, occasional huge transactions (overflow at small L1s) and
// occasional syscalls (faults).
class FuzzWorkload final : public wl::StampWorkloadBase {
 public:
  explicit FuzzWorkload(std::uint64_t seed) : StampWorkloadBase(seed) {}

  std::string name() const override { return "fuzz"; }

 protected:
  void setup(mem::MainMemory&, unsigned) override {
    hot_ = space().allocLines(kHotLines);
    cold_ = space().allocLines(kColdLines);
    // Increment cells live in their own region: a random Write to a counter
    // cell would break the counting invariant (that would be a workload bug,
    // not a TM bug).
    ctrHot_ = space().allocLines(kHotLines);
    ctrCold_ = space().allocLines(kColdLines);
  }

  unsigned totalTransactions(unsigned) const override { return 96; }

  wl::TxDesc genTx(sim::Rng& rng, unsigned, unsigned, unsigned) override {
    wl::TxDesc d;
    d.computeInside = rng.below(60);
    d.gapAfter = 10 + rng.below(80);
    d.syscall = rng.percent(8);
    unsigned n = 1 + static_cast<unsigned>(rng.below(12));
    if (rng.percent(10)) n = 40 + static_cast<unsigned>(rng.below(21));  // huge
    for (unsigned i = 0; i < n; ++i) {
      const bool hot = rng.percent(35);
      const std::uint64_t lines = hot ? kHotLines : kColdLines;
      const unsigned kind = static_cast<unsigned>(rng.below(3));
      Addr base;
      if (kind == 2) {
        base = hot ? ctrHot_ : ctrCold_;
      } else {
        base = hot ? hot_ : cold_;
      }
      const Addr a =
          base + rng.below(lines) * kLineBytes + 8 * rng.below(kWordsPerLine);
      d.accesses.push_back({a, kind == 0   ? wl::Access::Kind::Read
                               : kind == 1 ? wl::Access::Kind::Write
                                           : wl::Access::Kind::Increment});
    }
    return d;
  }

 private:
  static constexpr std::uint64_t kHotLines = 6;
  static constexpr std::uint64_t kColdLines = 1024;
  Addr hot_ = 0;
  Addr cold_ = 0;
  Addr ctrHot_ = 0;
  Addr ctrCold_ = 0;
};

struct FuzzCase {
  std::uint64_t seed;
  const char* system;
  unsigned threads;
  bool smallCache;
};

class FuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzTest, AtomicAndCoherentUnderRandomWorkloads) {
  const auto& c = GetParam();
  cfg::RunConfig rc;
  rc.machine = c.smallCache ? cfg::MachineParams::smallCache()
                            : cfg::MachineParams::typical();
  rc.system = cfg::systemByName(c.system);
  rc.threads = c.threads;
  const auto r = cfg::runSimulation(
      rc, [&] { return std::make_unique<FuzzWorkload>(c.seed); });
  EXPECT_TRUE(r.ok()) << r.str();
}

std::vector<FuzzCase> fuzzCases() {
  std::vector<FuzzCase> out;
  const char* systems[] = {"CGL",           "Baseline",       "LosaTM-SAFU",
                           "Lockiller-RAI", "Lockiller-RRI",  "Lockiller-RWI",
                           "Lockiller-RWL", "Lockiller-RWIL", "LockillerTM"};
  std::uint64_t seed = 1000;
  for (const char* s : systems) {
    for (unsigned t : {3u, 7u}) {
      for (bool small : {false, true}) {
        out.push_back({seed++, s, t, small});
      }
    }
  }
  return out;
}

std::string fuzzName(const ::testing::TestParamInfo<FuzzCase>& info) {
  std::ostringstream oss;
  std::string sys = info.param.system;
  for (auto& ch : sys) {
    if (ch == '-') ch = '_';
  }
  oss << sys << "_" << info.param.threads << "t_"
      << (info.param.smallCache ? "small" : "typical") << "_s" << info.param.seed;
  return oss.str();
}

INSTANTIATE_TEST_SUITE_P(AllSystems, FuzzTest, ::testing::ValuesIn(fuzzCases()),
                         fuzzName);

// Extra randomized depth on the full LockillerTM stack: many seeds.
class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, LockillerTmSurvivesManySeeds) {
  cfg::RunConfig rc;
  rc.machine = cfg::MachineParams::smallCache();  // stress overflow + switching
  rc.system = cfg::systemByName("LockillerTM");
  rc.threads = 5;
  const auto r = cfg::runSimulation(
      rc, [&] { return std::make_unique<FuzzWorkload>(GetParam()); });
  EXPECT_TRUE(r.ok()) << r.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Range<std::uint64_t>(2000, 2024));

// The switch-on-fault extension must be just as safe.
class FuzzSwitchOnFaultTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSwitchOnFaultTest, ExtensionPreservesInvariants) {
  cfg::RunConfig rc;
  rc.machine = cfg::MachineParams::smallCache();
  rc.system = cfg::systemByName("LockillerTM+sof");
  rc.threads = 5;
  const auto r = cfg::runSimulation(
      rc, [&] { return std::make_unique<FuzzWorkload>(GetParam()); });
  EXPECT_TRUE(r.ok()) << r.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSwitchOnFaultTest,
                         ::testing::Range<std::uint64_t>(3000, 3012));

}  // namespace
}  // namespace lktm::test
