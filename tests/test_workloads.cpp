// Workload generators: structural properties, determinism, footprints, and
// end-to-end invariant verification through the full simulator.
#include <gtest/gtest.h>

#include <set>

#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "workloads/micro.hpp"
#include "workloads/workload.hpp"

namespace lktm::wl {
namespace {

/// Best-effort lock-elision backend with the default policy — the emission
/// path every pre-backend test used.
std::unique_ptr<tm::Backend> makeElisionBackend() {
  tm::BackendConfig bc;
  bc.lockAddr = kFallbackLockAddr;
  return tm::makeBackend("lockiller", bc);
}

TEST(AddressSpace, BumpAllocatesAligned) {
  AddressSpace s(0x1000);
  const Addr a = s.alloc(100);
  const Addr b = s.alloc(1, 256);
  EXPECT_EQ(a % kLineBytes, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GT(b, a);
  EXPECT_THROW(s.alloc(8, 3), std::invalid_argument);
}

TEST(AddressSpace, AllocLinesAdvances) {
  AddressSpace s(0);
  const Addr a = s.allocLines(4);
  const Addr b = s.allocLines(1);
  EXPECT_EQ(b - a, 4 * kLineBytes);
}

/// A job workload by table key, as sweeps and lktm-sim build it.
std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  return cfg::makeJobWorkload(name, seed);
}

// ------------------------------------------------------------ the table

TEST(WorkloadTable, EveryRowBuildsUnderItsOwnName) {
  std::set<std::string_view> keys;
  for (const WorkloadRow& row : workloadTable()) {
    EXPECT_TRUE(keys.insert(row.name).second) << "duplicate key " << row.name;
    auto w = make(std::string(row.name), 11);
    ASSERT_NE(w, nullptr) << row.name;
    EXPECT_EQ(w->name(), row.name);
  }
  EXPECT_EQ(keys.size(), 19u);
}

TEST(WorkloadTable, FamilyViewsKeepThePaperOrder) {
  EXPECT_EQ(stampNames(),
            (std::vector<std::string>{"genome", "intruder", "kmeans+", "kmeans-",
                                      "labyrinth", "ssca2", "vacation+", "vacation-",
                                      "yada"}));
  EXPECT_EQ(dbWorkloadNames(),
            (std::vector<std::string>{"ycsb", "ycsb-lo", "ycsb-w", "ycsb-scan", "tpcc",
                                      "sps", "sps-part"}));
}

TEST(WorkloadTable, UnknownNameListsTheValidOnes) {
  try {
    make("bogus", 11);
    FAIL() << "an unknown workload must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("genome"), std::string::npos) << what;
    EXPECT_NE(what.find("linkedlist"), std::string::npos) << what;
  }
}

TEST(Stamp, RegistryCoversAllNineWorkloads) {
  const auto names = stampNames();
  EXPECT_EQ(names.size(), 9u);
  for (const auto& n : names) {
    auto w = make(n, 11);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), n);
  }
  EXPECT_THROW(make("bayes", 11), std::invalid_argument);  // excluded by paper
}

TEST(Stamp, ProgramsAreBuildableForEveryThreadCount) {
  mem::MainMemory mem;
  for (const auto& n : stampNames()) {
    auto w = make(n, 11);
    w->init(mem, 32);
    tm::BackendConfig bc;
    bc.policy.htmLock = true;
    bc.lockAddr = kFallbackLockAddr;
    auto backend = tm::makeBackend("lockiller", bc);
    std::size_t total = 0;
    for (unsigned t = 0; t < 32; ++t) {
      const auto p = w->buildProgram(t, 32, *backend);
      EXPECT_GT(p.size(), 4u) << n;
      total += p.size();
    }
    EXPECT_GT(total, 500u) << n;
    EXPECT_GT(w->footprintEnd(), 0x100000u) << n;
  }
}

TEST(Stamp, InitTwiceThrows) {
  mem::MainMemory mem;
  auto w = make("genome", 1);
  w->init(mem, 2);
  EXPECT_THROW(w->init(mem, 2), std::logic_error);
}

TEST(Stamp, GenerationIsDeterministic) {
  mem::MainMemory m1, m2;
  auto a = make("vacation+", 42);
  auto b = make("vacation+", 42);
  a->init(m1, 4);
  b->init(m2, 4);
  auto ba = makeElisionBackend();
  auto bb = makeElisionBackend();
  for (unsigned t = 0; t < 4; ++t) {
    const auto pa = a->buildProgram(t, 4, *ba);
    const auto pb = b->buildProgram(t, 4, *bb);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa.code[i].op, pb.code[i].op);
      EXPECT_EQ(pa.code[i].imm, pb.code[i].imm);
    }
  }
}

TEST(Stamp, DifferentSeedsDiffer) {
  mem::MainMemory m1, m2;
  auto a = make("vacation+", 1);
  auto b = make("vacation+", 2);
  a->init(m1, 2);
  b->init(m2, 2);
  auto backend = makeElisionBackend();
  const auto pa = a->buildProgram(0, 2, *backend);
  const auto pb = b->buildProgram(0, 2, *backend);
  bool differs = pa.size() != pb.size();
  for (std::size_t i = 0; !differs && i < pa.size(); ++i) {
    differs = pa.code[i].imm != pb.code[i].imm;
  }
  EXPECT_TRUE(differs);
}

TEST(Stamp, WorkIsPartitionedNotReplicated) {
  // Total expected increments must not depend on the thread count.
  auto total = [](unsigned threads) {
    mem::MainMemory mem;
    auto w = make("ssca2", 7);
    auto* base = dynamic_cast<StampWorkloadBase*>(w.get());
    w->init(mem, threads);
    auto backend = makeElisionBackend();
    for (unsigned t = 0; t < threads; ++t) w->buildProgram(t, threads, *backend);
    return base->expectedIncrementTotal();
  };
  EXPECT_EQ(total(2), total(32));
}

struct LabyrinthProfile : ::testing::Test {};

TEST(Stamp, LabyrinthHasLargeSets) {
  mem::MainMemory mem;
  auto w = make("labyrinth", 3);
  w->init(mem, 2);
  auto backend = makeElisionBackend();
  const auto p = w->buildProgram(0, 2, *backend);
  // 24 txs/thread, each >120 accesses: the program must be large.
  EXPECT_GT(p.size(), 24u * 120u);
}

TEST(Stamp, YadaRaisesExceptions) {
  mem::MainMemory mem;
  auto w = make("yada", 3);
  w->init(mem, 2);
  auto backend = makeElisionBackend();
  const auto p = w->buildProgram(0, 2, *backend);
  unsigned syscalls = 0;
  for (const auto& i : p.code) syscalls += i.op == cpu::Op::SysCall;
  EXPECT_GT(syscalls, 20u);  // ~70% of 64 transactions
}

TEST(Stamp, KmeansContentionKnob) {
  // kmeans+ concentrates its updates on far fewer lines than kmeans-.
  auto distinctCells = [](bool high) {
    mem::MainMemory mem;
    auto w = make(high ? "kmeans+" : "kmeans-", 5);
    w->init(mem, 2);
    auto backend = makeElisionBackend();
    w->buildProgram(0, 1, *backend);
    return w->footprintEnd();
  };
  EXPECT_LT(distinctCells(true), distinctCells(false));
}

// ------------------------------------------------- full-stack invariants

cfg::RunResult runMicro(const char* system, const cfg::WorkloadFactory& f,
                        unsigned threads) {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName(system);
  rc.threads = threads;
  return cfg::runSimulation(rc, f);
}

class MicroInvariantTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MicroInvariantTest, MaxContentionCounter) {
  const auto r = runMicro(GetParam(), [] { return makeCounter(1, 1, 96); }, 8);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST_P(MicroInvariantTest, BankConservesMoney) {
  const auto r = runMicro(GetParam(), [] { return makeBank(32, 120); }, 8);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST_P(MicroInvariantTest, LinkedListPointerChase) {
  const auto r = runMicro(GetParam(), [] { return makeLinkedList(64, 5, 80); }, 4);
  EXPECT_TRUE(r.ok()) << r.str();
}

INSTANTIATE_TEST_SUITE_P(AllSystems, MicroInvariantTest,
                         ::testing::Values("CGL", "Baseline", "LosaTM-SAFU",
                                           "Lockiller-RAI", "Lockiller-RRI",
                                           "Lockiller-RWI", "Lockiller-RWL",
                                           "Lockiller-RWIL", "LockillerTM"),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

}  // namespace
}  // namespace lktm::wl
