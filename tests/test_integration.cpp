// Whole-stack integration: every Table II system x STAMP analogs x thread
// counts completes, keeps atomicity, keeps SWMR, and is bit-deterministic.
#include <gtest/gtest.h>

#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "config/systems.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {
namespace {

RunResult run(const std::string& system, const std::string& workload,
              unsigned threads, MachineParams machine = MachineParams::typical()) {
  RunConfig rc;
  rc.machine = machine;
  rc.system = systemByName(system);
  rc.threads = threads;
  return runSimulation(rc, [&] { return wl::makeStamp(workload); });
}

// Cross product property test: "it completes and nothing is ever lost".
struct MatrixCase {
  const char* system;
  const char* workload;
  unsigned threads;
};

class MatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(MatrixTest, CompletesCoherentlyAndAtomically) {
  const auto& c = GetParam();
  const auto r = run(c.system, c.workload, c.threads);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.totalCommits() + r.htmCommits(), 0u);
}

std::vector<MatrixCase> matrixCases() {
  std::vector<MatrixCase> out;
  const char* systems[] = {"CGL",           "Baseline",       "LosaTM-SAFU",
                           "Lockiller-RAI", "Lockiller-RRI",  "Lockiller-RWI",
                           "Lockiller-RWL", "Lockiller-RWIL", "LockillerTM"};
  const char* workloads[] = {"intruder", "labyrinth", "yada", "kmeans+"};
  for (const char* s : systems) {
    for (const char* w : workloads) {
      for (unsigned t : {2u, 4u}) out.push_back({s, w, t});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllSystemsHardWorkloads, MatrixTest,
                         ::testing::ValuesIn(matrixCases()),
                         [](const auto& info) {
                           std::string s = std::string(info.param.system) + "_" +
                                           info.param.workload + "_" +
                                           std::to_string(info.param.threads) + "t";
                           for (auto& c : s) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return s;
                         });

TEST(Integration, DeterministicAcrossRuns) {
  const auto a = run("LockillerTM", "intruder", 8);
  const auto b = run("LockillerTM", "intruder", 8);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.htmCommits(), b.htmCommits());
  EXPECT_EQ(a.aborts(), b.aborts());
  EXPECT_EQ(a.rejectsSent(), b.rejectsSent());
  EXPECT_EQ(a.messages(), b.messages());
}

TEST(Integration, DeterministicUnderAllPolicies) {
  for (const auto& sys : evaluatedSystems()) {
    const auto a = run(sys.name, "vacation+", 4);
    const auto b = run(sys.name, "vacation+", 4);
    EXPECT_EQ(a.cycles, b.cycles) << sys.name;
    EXPECT_EQ(a.aborts(), b.aborts()) << sys.name;
  }
}

TEST(Integration, SmallCacheStressesOverflowButStaysCorrect) {
  for (const char* sys : {"Baseline", "Lockiller-RWIL", "LockillerTM"}) {
    const auto r = run(sys, "labyrinth", 4, MachineParams::smallCache());
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_GT(r.abortCount(AbortCause::Overflow) + r.stlCommits() +
                  r.lockCommits(),
              0u)
        << sys << ": 8KB L1 must trigger the overflow machinery";
  }
}

TEST(Integration, LargeCacheRemovesMostOverflow) {
  const auto small = run("Baseline", "labyrinth", 2, MachineParams::smallCache());
  const auto large = run("Baseline", "labyrinth", 2, MachineParams::largeCache());
  EXPECT_LT(large.abortCount(AbortCause::Overflow),
            small.abortCount(AbortCause::Overflow));
}

TEST(Integration, ThreadScalingKeepsTotalWork) {
  // Fixed total work: commits across all threads are ~constant in the
  // thread count (lock commits + htm commits + stl commits).
  const auto a = run("LockillerTM", "ssca2", 2);
  const auto b = run("LockillerTM", "ssca2", 16);
  EXPECT_EQ(a.totalCommits(), b.totalCommits());
}

TEST(Integration, SweepRunnerPreservesOrderAndLabels) {
  // Results follow the cross product (workload x system x threads) no matter
  // which host thread finished first.
  SweepManifest m = makeManifest("", "typical", {"Baseline", "CGL"}, {"counter"},
                                 {2u, 4u});
  OrchestratorOptions opts;
  opts.hostThreads = 2;
  std::vector<RunResult> results;
  runManifest(m, "", opts, {}, &results);
  ASSERT_EQ(results.size(), 4u);
  const std::vector<std::pair<std::string, unsigned>> want = {
      {"Baseline", 2u}, {"Baseline", 4u}, {"CGL", 2u}, {"CGL", 4u}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(results[i].system, want[i].first) << i;
    EXPECT_EQ(results[i].workload, "counter") << i;
    EXPECT_EQ(results[i].threads, want[i].second) << i;
    EXPECT_TRUE(results[i].ok()) << results[i].str();
  }
}

TEST(Integration, SweepCapturesExceptionsAsFailures) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"SysX", "wlY", "typical", 4, kDefaultSweepSeed};
  std::vector<RunResult> results;
  runManifest(m, "", {},
              [](const JobSpec&, const OrchestratorOptions&,
                 sim::SimContext&) -> RunResult { throw std::runtime_error("boom"); },
              &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_NE(results[0].diagnostic.find("boom"), std::string::npos);
  // The failed cell is still locatable by its sweep coordinates (the old
  // exception path dropped workload/threads, so findResult could never see
  // failed jobs).
  const RunResult* r = findResult(results, "SysX", "wlY", 4);
  ASSERT_NE(r, nullptr);
  // A crash is a Failed run, not a Hang — the old code folded every failure
  // into the hang flag.
  EXPECT_EQ(r->status, RunStatus::Failed);
  EXPECT_FALSE(r->hang());
}

TEST(Integration, SweepHandlesEmptyJobList) {
  SweepManifest m = makeManifest("", "typical", {}, {}, {});
  OrchestratorOptions opts;
  opts.hostThreads = 4;
  std::vector<RunResult> results;
  runManifest(m, "", opts, {}, &results);
  EXPECT_TRUE(results.empty());
}

TEST(Integration, FindResultLocatesCells) {
  std::vector<RunResult> rs(2);
  rs[0].system = "A";
  rs[0].workload = "w";
  rs[0].threads = 2;
  rs[1].system = "B";
  rs[1].workload = "w";
  rs[1].threads = 4;
  EXPECT_EQ(findResult(rs, "B", "w", 4), &rs[1]);
  EXPECT_EQ(findResult(rs, "B", "w", 8), nullptr);
}

TEST(Integration, BreakdownAccountsForAllCycles) {
  const auto r = run("LockillerTM", "vacation-", 4);
  ASSERT_TRUE(r.ok()) << r.str();
  // Every thread's breakdown sums to <= wall-clock; total > 0.
  for (unsigned tid = 0; tid < 4; ++tid) {
    const cfg::TimeBreakdown bd = r.threadBreakdown(tid);
    EXPECT_LE(bd.total(), r.cycles);
    EXPECT_GT(bd.total(), 0u);
  }
  EXPECT_GT(r.breakdown().total(), 0u);
}

TEST(Integration, Table2RegistryMatchesPaper) {
  const auto systems = evaluatedSystems();
  ASSERT_EQ(systems.size(), 11u);  // 9 paper rows + TL2-STM + Hybrid-TM
  EXPECT_EQ(systems[0].name, "CGL");
  EXPECT_FALSE(systems[0].policy.htmEnabled);
  EXPECT_EQ(systems[1].name, "Baseline");
  EXPECT_EQ(systems[1].policy.conflict, core::ConflictPolicy::RequesterWins);
  EXPECT_EQ(systems[2].name, "LosaTM-SAFU");
  EXPECT_EQ(systems[2].policy.priority, core::PriorityKind::Progression);
  EXPECT_EQ(systems[5].name, "Lockiller-RWI");
  EXPECT_EQ(systems[5].policy.rejectAction, core::RejectAction::WaitWakeup);
  EXPECT_FALSE(systems[5].policy.htmLock);
  EXPECT_EQ(systems[6].name, "Lockiller-RWL");
  EXPECT_EQ(systems[6].policy.priority, core::PriorityKind::None);
  EXPECT_TRUE(systems[6].policy.htmLock);
  EXPECT_EQ(systems[8].name, "LockillerTM");
  EXPECT_TRUE(systems[8].policy.htmLock);
  EXPECT_TRUE(systems[8].policy.switching);
  // The rows that are TM backends of their own follow the paper's.
  EXPECT_EQ(systems[9].name, "TL2-STM");
  EXPECT_EQ(systems[9].backend, "tl2");
  EXPECT_FALSE(systems[9].policy.htmEnabled);
  EXPECT_EQ(systems[10].name, "Hybrid-TM");
  EXPECT_EQ(systems[10].backend, "hybrid");
  EXPECT_TRUE(systems[10].policy.htmEnabled);
  EXPECT_THROW(systemByName("nope"), std::invalid_argument);
}

// Every knob that changes a result has one canonical name token. Each
// accepted name comes back byte for byte as the configuration's name and
// sets the field its tokens name; every other spelling is refused.
TEST(Integration, NameTokensRoundTripAndSetTheirField) {
  const struct {
    const char* name;
    bool (*sets)(const SystemSpec&);
  } systems[] = {
      {"Baseline+retries=1", [](const SystemSpec& s) { return s.retry.maxRetries == 1; }},
      {"Baseline+noskip",
       [](const SystemSpec& s) { return !s.retry.skipRetriesOnPersistent; }},
      {"Hybrid-TM+retries=16+noskip",
       [](const SystemSpec& s) {
         return s.retry.maxRetries == 16 && !s.retry.skipRetriesOnPersistent &&
                s.backend == "hybrid";
       }},
      {"CGL+lock=tts",
       [](const SystemSpec& s) { return s.retry.cglLock == rt::LockImpl::TestAndSet; }},
      {"LockillerTM+sof", [](const SystemSpec& s) { return s.policy.switchOnFault; }},
      {"LockillerTM+retries=4+noskip+sof",
       [](const SystemSpec& s) {
         return s.retry.maxRetries == 4 && !s.retry.skipRetriesOnPersistent &&
                s.policy.switchOnFault;
       }},
  };
  for (const auto& c : systems) {
    const SystemSpec s = systemByName(c.name);
    EXPECT_EQ(s.name, c.name);
    EXPECT_TRUE(c.sets(s)) << c.name;
  }
  // No row spells a knob's default value.
  for (const SystemSpec& row : evaluatedSystems()) {
    EXPECT_EQ(row.retry.maxRetries, rt::RetryPolicy{}.maxRetries) << row.name;
    EXPECT_TRUE(row.retry.skipRetriesOnPersistent) << row.name;
    EXPECT_EQ(row.retry.cglLock, rt::LockImpl::Mcs) << row.name;
    EXPECT_FALSE(row.policy.switchOnFault) << row.name;
  }

  const struct {
    const char* name;
    bool (*sets)(const MachineParams&);
  } machines[] = {
      {"typical-sig=64", [](const MachineParams& m) { return m.signatureBits == 64; }},
      {"small-cache-sig=16384",
       [](const MachineParams& m) {
         return m.signatureBits == 16384 && m.l1.sizeBytes == 8 * 1024;
       }},
      {"typical-net=ideal", [](const MachineParams& m) { return m.idealNetwork; }},
      {"typical-c64-b4-sig=512-net=ideal",
       [](const MachineParams& m) {
         return m.numCores == 64 && m.numBanks == 4 && m.signatureBits == 512 &&
                m.idealNetwork;
       }},
  };
  for (const auto& c : machines) {
    const MachineParams m = machineByName(c.name);
    EXPECT_EQ(m.name, c.name);
    EXPECT_TRUE(c.sets(m)) << c.name;
  }

  for (const char* bad :
       {"LockillerTM+bogus", "LockillerTM+", "CGL+sof", "Lockiller-RWIL+sof",
        "Baseline+retries=0", "Baseline+retries=8", "Baseline+retries=04",
        "Baseline+retries=", "Baseline+noskip+retries=4", "LockillerTM+sof+sof",
        "TL2-STM+retries=4", "CGL+noskip", "Baseline+lock=tts", "CGL+lock=mcs",
        "CGL+lock=spin", "Nope+sof"}) {
    EXPECT_THROW(systemByName(bad), std::invalid_argument) << bad;
  }
  for (const char* bad :
       {"typical-sig=0", "typical-sig=100", "typical-sig=2048", "typical-sig=064",
        "typical-net=fast", "typical-net=mesh", "typical-net=ideal-net=ideal",
        "typical-c64-c32", "small", "large-c64", "typical-b2-c8",
        "typical-be=tl2", "typical-be=tl2-sig=64"}) {
    EXPECT_THROW(machineByName(bad), std::invalid_argument) << bad;
  }
}

TEST(Integration, MachinePresetsMatchPaper) {
  const auto typical = MachineParams::typical();
  EXPECT_EQ(typical.numCores, 32u);
  EXPECT_EQ(typical.l1.sizeBytes, 32u * 1024);
  EXPECT_EQ(typical.protocol.l1HitLatency, 2u);
  EXPECT_EQ(typical.protocol.llcLatency, 12u);
  EXPECT_EQ(typical.protocol.memLatency, 100u);
  EXPECT_EQ(typical.mesh.cols * typical.mesh.rows, 32u);
  EXPECT_EQ(MachineParams::smallCache().l1.sizeBytes, 8u * 1024);
  EXPECT_EQ(MachineParams::largeCache().l1.sizeBytes, 128u * 1024);
}

// Every build supports 512 cores; one more is a configuration error whose
// message names the limit and gives no rebuild hint.
TEST(Integration, MachineCoreLimitIs512) {
  const MachineParams max = machineByName("typical-c512-b16");
  EXPECT_EQ(max.numCores, 512u);
  EXPECT_NO_THROW(max.validate());

  const MachineParams over = machineByName("typical-c513-b16");
  EXPECT_EQ(over.numCores, 513u);
  try {
    over.validate();
    FAIL() << "513 cores validated";
  } catch (const std::invalid_argument& e) {
    const std::string why = e.what();
    EXPECT_NE(why.find("513"), std::string::npos) << why;
    EXPECT_NE(why.find("512"), std::string::npos) << why;
    // No rebuild hint: neither a -D cache flag nor a preset to switch to.
    EXPECT_EQ(why.find("-D"), std::string::npos) << why;
    EXPECT_EQ(why.find("reconfigure"), std::string::npos) << why;
    EXPECT_EQ(why.find("bigcores"), std::string::npos) << why;
  }
}

}  // namespace
}  // namespace lktm::cfg
