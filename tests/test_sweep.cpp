// The sweep path end to end: exception capture, per-job determinism across
// host-thread counts, one seed meaning for every result, the manifest
// orchestrator (checkpoint/resume, retry classification, budgets) and the
// bit-identical merged-artifact guarantee an interrupted sweep must keep.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "config/artifact.hpp"
#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/sweep.hpp"
#include "config/systems.hpp"
#include "stats/json.hpp"

namespace lktm::test {
namespace {

namespace fs = std::filesystem;
using namespace lktm::cfg;

std::string tempDir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("lktm_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

/// The small real grid the orchestrator tests run: micro workloads so every
/// job finishes in milliseconds.
SweepManifest testManifest(const std::string& artifactDir) {
  return makeManifest(artifactDir, "typical", {"Baseline", "LockillerTM"},
                      {"counter", "bank"}, {2}, kDefaultSweepSeed);
}

/// A one-job manifest whose runner always throws `thrown`.
template <typename Thrown>
std::vector<RunResult> runThrowingJob(const JobSpec& spec, Thrown thrown) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = spec;
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  std::vector<RunResult> results;
  runManifest(m, "", opts,
              [thrown](const JobSpec&, const OrchestratorOptions&,
                       sim::SimContext&) -> RunResult { throw thrown; },
              &results);
  return results;
}

// ------------------------------------------------------------------- sweeps

TEST(Sweep, NonStdExceptionIsCapturedAsFailure) {
  // A throw that is not derived from std::exception used to escape the
  // worker thread and std::terminate the whole process.
  const auto results = runThrowingJob(JobSpec{"S", "w", "typical", 2, 11}, 42);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Failed);
  EXPECT_NE(results[0].diagnostic.find("non-standard exception"), std::string::npos);
  EXPECT_FALSE(results[0].hang());
}

TEST(Sweep, JobSeedTravelsIntoFailedResults) {
  // A failed job carries the seed its run used — jobRunSeed of its
  // coordinates, the same as a successful one — so failure artifacts stay
  // reproducible.
  const JobSpec spec{"S", "w", "typical", 2, 0x9e3779b97f4a7c15ull};
  const auto results = runThrowingJob(spec, std::runtime_error("x"));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Failed);
  EXPECT_EQ(results[0].seed, jobRunSeed(0x9e3779b97f4a7c15ull, "S", "w", 2));
}

TEST(Sweep, ResumedResultsAllCarryJobRunSeed) {
  // Results that never ran in this invocation — a Failed job skipped on
  // resume, jobs left Pending by maxJobs — carry jobRunSeed too, exactly
  // like the job that did run.
  const std::string dir = tempDir("resume_seeds");
  const std::string path = dir + "/sweep.json";
  SweepManifest planned = testManifest(dir + "/runs");
  planned.jobs[0].state = JobState::Failed;
  planned.jobs[0].diagnostic = "exception: earlier crash";
  ASSERT_TRUE(planned.save(path));

  SweepManifest m = SweepManifest::load(path);
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxJobs = 1;
  std::vector<RunResult> results;
  const OrchestratorReport rep = runManifest(m, path, opts, {}, &results);
  EXPECT_EQ(rep.ran, 1u);
  EXPECT_EQ(rep.skipped, 1u);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, RunStatus::Failed);
  EXPECT_EQ(results[0].diagnostic, "exception: earlier crash");
  EXPECT_TRUE(results[1].ok()) << results[1].str();
  for (std::size_t i = 2; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, RunStatus::Failed);
    EXPECT_NE(results[i].diagnostic.find("not run"), std::string::npos);
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobSpec& s = m.jobs[i].spec;
    EXPECT_EQ(results[i].seed, jobRunSeed(s.seed, s.system, s.workload, s.threads))
        << "job " << i;
    EXPECT_EQ(results[i].system, s.system);
    EXPECT_EQ(results[i].workload, s.workload);
    EXPECT_EQ(results[i].threads, s.threads);
  }
}

TEST(Sweep, JobRunSeedDependsOnEveryCoordinate) {
  const std::uint64_t base = jobRunSeed(11, "A", "w", 2);
  EXPECT_EQ(jobRunSeed(11, "A", "w", 2), base);  // deterministic
  EXPECT_NE(jobRunSeed(12, "A", "w", 2), base);
  EXPECT_NE(jobRunSeed(11, "B", "w", 2), base);
  EXPECT_NE(jobRunSeed(11, "A", "x", 2), base);
  EXPECT_NE(jobRunSeed(11, "A", "w", 4), base);
  // Concatenation ambiguity must not collide.
  EXPECT_NE(jobRunSeed(11, "ab", "c", 2), jobRunSeed(11, "a", "bc", 2));
}

TEST(Sweep, ResultsIndependentOfHostThreads) {
  // The determinism contract: per-job results depend only on the job spec,
  // never on hostThreads or on what a reused worker context ran before.
  std::vector<RunResult> reference;
  for (const unsigned hostThreads : {1u, 2u, 4u}) {
    SweepManifest m = testManifest("");
    OrchestratorOptions opts;
    opts.hostThreads = hostThreads;
    std::vector<RunResult> results;
    runManifest(m, "", opts, {}, &results);
    ASSERT_EQ(results.size(), 4u);
    for (const auto& r : results) {
      EXPECT_TRUE(r.ok()) << r.str();
    }
    if (reference.empty()) {
      reference = std::move(results);
      continue;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[i].cycles, reference[i].cycles)
          << "hostThreads=" << hostThreads << " job " << i;
      EXPECT_EQ(results[i].seed, reference[i].seed);
      EXPECT_TRUE(results[i].stats == reference[i].stats)
          << "snapshot diverged at hostThreads=" << hostThreads << " job " << i;
    }
  }
}

// ---------------------------------------------------------------- manifest

TEST(Orchestrator, ManifestRoundTripPreservesU64Seeds) {
  SweepManifest m;
  m.artifactDir = "runs";
  JobRecord j;
  // Above 2^53: a double-typed JSON layer would silently round this.
  j.spec = JobSpec{"LockillerTM", "genome", "typical", 32, 0x9e3779b97f4a7c15ull};
  j.state = JobState::Timeout;
  j.attempts = 3;
  j.diagnostic = "wall-clock budget exceeded";
  j.cycles = 0xfedcba9876543210ull;
  m.jobs.push_back(j);

  const SweepManifest back = SweepManifest::fromJson(stats::json::parse(m.toJson()));
  ASSERT_EQ(back.jobs.size(), 1u);
  EXPECT_EQ(back.artifactDir, "runs");
  EXPECT_TRUE(back.jobs[0].spec == j.spec);
  EXPECT_EQ(back.jobs[0].spec.seed, 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(back.jobs[0].cycles, 0xfedcba9876543210ull);
  EXPECT_EQ(back.jobs[0].state, JobState::Timeout);
  EXPECT_EQ(back.jobs[0].attempts, 3u);
  EXPECT_EQ(back.jobs[0].diagnostic, "wall-clock budget exceeded");

  // And byte-stable: re-serializing the parsed manifest reproduces itself.
  EXPECT_EQ(back.toJson(), m.toJson());
}

TEST(Orchestrator, ManifestSaveIsAtomicAndLoadable) {
  const std::string dir = tempDir("manifest_save");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");
  ASSERT_TRUE(m.save(path));
  // The tmp file was renamed away: the manifest is the directory's only entry.
  std::vector<std::string> entries;
  for (const auto& e : fs::directory_iterator(dir)) {
    entries.push_back(e.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"sweep.json"});
  const SweepManifest back = SweepManifest::load(path);
  ASSERT_EQ(back.jobs.size(), m.jobs.size());
  EXPECT_EQ(back.artifactDir, m.artifactDir);
  EXPECT_TRUE(back.jobs[2].spec == m.jobs[2].spec);
}

TEST(Orchestrator, DuplicateJobIdsRejected) {
  SweepManifest m;
  m.jobs.resize(2);
  m.jobs[0].spec = JobSpec{"A", "w", "typical", 2, 11};
  m.jobs[1].spec = JobSpec{"A", "w", "typical", 2, 11};
  EXPECT_THROW((void)SweepManifest::fromJson(stats::json::parse(m.toJson())),
               std::runtime_error);
}

TEST(Orchestrator, FiguresPresetIsTheRenderedGrid) {
  // 11 systems x 9 STAMP x 5 thread counts on the typical machine, CGL and
  // the 4 systems Fig 13 compares x 9 x 5 on each cache variant, the 28
  // table3-dbtraffic jobs, then the 19 "ablations" cells the grid lacks (the
  // other 11 of its 30 are grid cells already).
  SweepManifest m = presetManifest("figures", "");
  EXPECT_EQ(m.jobs.size(), 992u);
  std::set<std::string> ids;
  for (const JobRecord& j : m.jobs) {
    EXPECT_TRUE(ids.insert(j.spec.id()).second) << "duplicate id " << j.spec.id();
  }
  for (const char* machine : {"small-cache", "large-cache"}) {
    for (const char* system : {"CGL", "LockillerTM"}) {
      EXPECT_NE(m.find(JobSpec{system, "yada", machine, 2}.id()), nullptr)
          << system << " on " << machine << " at 2 threads";
    }
  }
  const SweepManifest db = presetManifest("table3-dbtraffic", "");
  const std::size_t dbStart = 495 + 450;
  ASSERT_LE(dbStart + db.jobs.size(), m.jobs.size());
  for (std::size_t i = 0; i < db.jobs.size(); ++i) {
    EXPECT_EQ(m.jobs[dbStart + i].spec, db.jobs[i].spec) << i;
  }
  const SweepManifest ablations = presetManifest("ablations", "");
  EXPECT_EQ(ablations.jobs.size(), 30u);
  for (const JobRecord& j : ablations.jobs) {
    EXPECT_NE(m.find(j.spec.id()), nullptr) << j.spec.id();
  }
  EXPECT_THROW((void)presetManifest("bogus", ""), std::invalid_argument);
}

TEST(Orchestrator, AblationCellsAreNamedByTheirTokens) {
  // Every ablation knob is spelled in the cell's names, and each name is the
  // one the lookup gives back.
  SweepManifest m = presetManifest("ablations", "");
  for (const JobRecord& j : m.jobs) {
    EXPECT_EQ(systemByName(j.spec.system).name, j.spec.system);
    EXPECT_EQ(machineByName(j.spec.machine).name, j.spec.machine);
  }
  for (const char* id : {"Baseline+retries=1+noskip/vacation+/typical@16#11",
                         "LockillerTM/yada/small-cache-sig=64@8#11",
                         "CGL+lock=tts/kmeans-/typical@32#11",
                         "LockillerTM/intruder/typical-net=ideal@32#11",
                         "LockillerTM+sof/yada/typical@2#11"}) {
    EXPECT_NE(m.find(id), nullptr) << id;
  }
}

// ------------------------------------------------------------- orchestrator

TEST(Orchestrator, ResumeSkipsCompletedJobs) {
  const std::string dir = tempDir("resume_skip");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");

  std::atomic<unsigned> invocations{0};
  auto countingRunner = [&](const JobSpec& spec, const OrchestratorOptions& o,
                            sim::SimContext& ctx) {
    ++invocations;
    return runSpec(spec, o, ctx);
  };

  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport first = runManifest(m, path, opts, countingRunner);
  EXPECT_EQ(first.ran, 4u);
  EXPECT_EQ(first.ok, 4u);
  EXPECT_EQ(invocations.load(), 4u);
  EXPECT_TRUE(m.complete());
  EXPECT_TRUE(m.allOk());

  // Reload from disk (what a fresh process would see) and run again: nothing
  // executes.
  SweepManifest resumed = SweepManifest::load(path);
  const OrchestratorReport second = runManifest(resumed, path, opts, countingRunner);
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(second.skipped, 4u);
  EXPECT_EQ(second.ok, 4u);
  EXPECT_EQ(invocations.load(), 4u);
}

TEST(Orchestrator, ResumedResultsIncludeSkippedJobs) {
  const std::string dir = tempDir("resume_results");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  std::vector<RunResult> full;
  runManifest(m, path, opts, {}, &full);
  ASSERT_EQ(full.size(), 4u);

  SweepManifest resumed = SweepManifest::load(path);
  std::vector<RunResult> reloaded;
  runManifest(resumed, path, opts, {}, &reloaded);
  ASSERT_EQ(reloaded.size(), 4u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(reloaded[i].ok()) << reloaded[i].str();
    EXPECT_EQ(reloaded[i].cycles, full[i].cycles);
    EXPECT_EQ(reloaded[i].seed, full[i].seed);
    EXPECT_TRUE(reloaded[i].stats == full[i].stats)
        << "artifact round-trip changed job " << i;
  }
}

TEST(Orchestrator, KillAndResumeMergesBitIdentical) {
  // Uninterrupted sweep on 2 host threads...
  const std::string dirA = tempDir("merge_a");
  SweepManifest a = testManifest(dirA + "/runs");
  OrchestratorOptions optsA;
  optsA.hostThreads = 2;
  runManifest(a, dirA + "/sweep.json", optsA);
  ASSERT_TRUE(a.allOk());
  ASSERT_TRUE(writeMergedArtifact(a, dirA + "/merged.json"));

  // ...vs the same sweep interrupted after 2 jobs, then resumed from disk on
  // 1 host thread.
  const std::string dirB = tempDir("merge_b");
  const std::string pathB = dirB + "/sweep.json";
  SweepManifest b = testManifest(dirB + "/runs");
  OrchestratorOptions interrupted;
  interrupted.hostThreads = 1;
  interrupted.maxJobs = 2;
  const OrchestratorReport rep = runManifest(b, pathB, interrupted);
  EXPECT_EQ(rep.ran, 2u);
  EXPECT_FALSE(b.complete());
  EXPECT_EQ(b.countIn(JobState::Pending), 2u);

  SweepManifest resumed = SweepManifest::load(pathB);
  OrchestratorOptions rest;
  rest.hostThreads = 1;
  const OrchestratorReport rep2 = runManifest(resumed, pathB, rest);
  EXPECT_EQ(rep2.ran, 2u);
  EXPECT_EQ(rep2.skipped, 2u);
  ASSERT_TRUE(resumed.allOk());
  ASSERT_TRUE(writeMergedArtifact(resumed, dirB + "/merged.json"));

  EXPECT_EQ(readFile(dirA + "/merged.json"), readFile(dirB + "/merged.json"))
      << "interrupted+resumed merge must be bit-identical to uninterrupted";
}

TEST(Orchestrator, StaleRunningJobsRestartOnResume) {
  const std::string dir = tempDir("stale_running");
  SweepManifest m = testManifest(dir + "/runs");
  m.jobs[1].state = JobState::Running;  // marker left by a killed process
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport rep = runManifest(m, dir + "/sweep.json", opts);
  EXPECT_EQ(rep.ran, 4u);
  EXPECT_TRUE(m.allOk());
}

TEST(Orchestrator, OkJobWithMissingArtifactReruns) {
  const std::string dir = tempDir("lost_artifact");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, path, opts);
  ASSERT_TRUE(m.allOk());
  fs::remove(m.jobs[0].artifact);  // lose one artifact

  SweepManifest resumed = SweepManifest::load(path);
  const OrchestratorReport rep = runManifest(resumed, path, opts);
  EXPECT_EQ(rep.ran, 1u);
  EXPECT_EQ(rep.skipped, 3u);
  EXPECT_TRUE(resumed.allOk());
  EXPECT_TRUE(fs::exists(resumed.jobs[0].artifact));
}

TEST(Orchestrator, FailedCheckpointFailsTheRun) {
  // A sweep whose manifest cannot be written must fail, not report success
  // with no checkpoint on disk: claims stop at the first failed save and
  // runManifest throws, naming the path, once the running jobs drain.
  const std::string dir = tempDir("checkpoint_fail");
  std::atomic<unsigned> invocations{0};
  std::string removeOnSecondJob;
  auto runner = [&](const JobSpec& spec, const OrchestratorOptions& o,
                    sim::SimContext& ctx) {
    if (++invocations == 2 && !removeOnSecondJob.empty()) {
      fs::remove_all(removeOnSecondJob);
    }
    return runSpec(spec, o, ctx);
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const auto expectThrowNaming = [&](SweepManifest& m, const std::string& path) {
    try {
      runManifest(m, path, opts, runner);
      ADD_FAILURE() << "runManifest returned without a manifest at " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(m.complete());
  };

  // The manifest's directory never existed: the first claim cannot be
  // checkpointed, so no job runs.
  SweepManifest absent = testManifest(dir + "/runs");
  expectThrowNaming(absent, dir + "/absent/sweep.json");
  EXPECT_EQ(invocations.load(), 0u);
  EXPECT_EQ(absent.countIn(JobState::Pending), 4u);

  // The directory vanishes while the second job runs: its completion cannot
  // be checkpointed and nothing further is claimed.
  const std::string live = dir + "/live";
  fs::create_directories(live);
  removeOnSecondJob = live;
  SweepManifest vanishing = testManifest(dir + "/runs2");
  expectThrowNaming(vanishing, live + "/sweep.json");
  EXPECT_EQ(invocations.load(), 2u);
  EXPECT_EQ(vanishing.countIn(JobState::Ok), 2u);
  EXPECT_EQ(vanishing.countIn(JobState::Pending), 2u);
}

// ----------------------------------------------------- failure classification

TEST(Orchestrator, PermanentFailureIsNotRetried) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"A", "w", "typical", 2, 11};
  std::atomic<unsigned> calls{0};
  auto crash = [&](const JobSpec&, const OrchestratorOptions&,
                   sim::SimContext&) -> RunResult {
    ++calls;
    throw std::runtime_error("deterministic bug");
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, "", opts, crash);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(m.jobs[0].attempts, 1u);
  EXPECT_EQ(m.jobs[0].state, JobState::Failed);
  EXPECT_NE(m.jobs[0].diagnostic.find("deterministic bug"), std::string::npos);
}

TEST(Orchestrator, NonCanonicalMachineNameNeverReachesAnArtifact) {
  // "small" used to run as "small-cache", so the job's machine and its
  // artifact's machine differed. The job now fails and names the spelling.
  const std::string dir = tempDir("noncanonical_machine");
  SweepManifest m = makeManifest(dir, "small", {"Baseline"}, {"counter"}, {2},
                                 kDefaultSweepSeed);
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport rep = runManifest(m, "", opts);
  EXPECT_EQ(rep.ok, 0u);
  EXPECT_EQ(m.jobs[0].state, JobState::Failed);
  EXPECT_NE(m.jobs[0].diagnostic.find("write 'small-cache'"), std::string::npos)
      << m.jobs[0].diagnostic;
  EXPECT_TRUE(fs::is_empty(dir));
  EXPECT_THROW((void)machineByName("small-cache-b2-c8"), std::invalid_argument);
  EXPECT_EQ(machineByName("small-cache-c8-b2").name, "small-cache-c8-b2");
}

TEST(Orchestrator, CycleBudgetEndsRunAsDeterministicTimeout) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"LockillerTM", "genome", "typical", 8, 11};
  std::atomic<unsigned> calls{0};
  auto counting = [&](const JobSpec& spec, const OrchestratorOptions& o,
                      sim::SimContext& ctx) {
    ++calls;
    return runSpec(spec, o, ctx);
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.jobCycleBudget = 50;  // far too small for any real run
  std::vector<RunResult> results;
  runManifest(m, "", opts, counting, &results);
  EXPECT_EQ(m.jobs[0].state, JobState::Timeout);
  EXPECT_EQ(calls.load(), 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Timeout);
  // The engine's diagnostic already lists every CPU; none is listed twice.
  const std::string& diag = results[0].diagnostic;
  for (unsigned c = 0; c < 8; ++c) {
    const std::string line = "cpu c" + std::to_string(c) + ":";
    const std::size_t first = diag.find(line);
    ASSERT_NE(first, std::string::npos) << line << " missing:\n" << diag;
    EXPECT_EQ(diag.find(line, first + 1), std::string::npos)
        << line << " listed twice:\n" << diag;
  }
}

// ----------------------------------------------------------------- artifacts

TEST(Orchestrator, AtomicWriteFailureLeavesNothingBehind) {
  const std::string dir = tempDir("atomic_fail");
  // The directory does not exist: nothing can be written.
  const std::string missing = dir + "/absent/out.json";
  EXPECT_FALSE(writeFileAtomic(missing, "{}"));
  EXPECT_FALSE(fs::exists(missing));
  EXPECT_FALSE(fs::exists(dir + "/absent"));
  // The tmp file is written but cannot be renamed over the target (a
  // non-empty directory): the tmp file must be cleaned up.
  const std::string blocked = dir + "/out.json";
  fs::create_directories(blocked + "/keep");
  EXPECT_FALSE(writeFileAtomic(blocked, "{}"));
  EXPECT_TRUE(fs::is_directory(blocked + "/keep"));
  std::vector<std::string> entries;
  for (const auto& e : fs::directory_iterator(dir)) {
    entries.push_back(e.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"out.json"});
  // The same helper succeeds once the target is writable.
  const std::string ok = dir + "/ok.json";
  EXPECT_TRUE(writeFileAtomic(ok, "{}\n"));
  EXPECT_EQ(readFile(ok), "{}\n");
}

TEST(Orchestrator, ArtifactRoundTripReconstructsRunResult) {
  const std::string dir = tempDir("artifact_rt");
  SweepManifest m;
  m.artifactDir = dir + "/runs";
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"Baseline", "counter", "typical", 2, 11};
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  std::vector<RunResult> results;
  runManifest(m, "", opts, {}, &results);
  ASSERT_EQ(m.jobs[0].state, JobState::Ok);

  const RunResult back = loadStatsArtifact(m.jobs[0].artifact);
  EXPECT_EQ(back.system, results[0].system);
  EXPECT_EQ(back.workload, results[0].workload);
  EXPECT_EQ(back.machine, results[0].machine);
  EXPECT_EQ(back.threads, results[0].threads);
  EXPECT_EQ(back.seed, results[0].seed);
  EXPECT_EQ(back.cycles, results[0].cycles);
  EXPECT_EQ(back.status, RunStatus::Ok);
  EXPECT_TRUE(back.stats == results[0].stats);
  // Derived accessors work off the reconstructed snapshot.
  EXPECT_EQ(back.totalCommits(), results[0].totalCommits());
  EXPECT_DOUBLE_EQ(back.commitRate().value_or(-1.0),
                   results[0].commitRate().value_or(-1.0));
}

TEST(Orchestrator, MergedArtifactIsValidStatsV1) {
  const std::string dir = tempDir("merged_valid");
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, dir + "/sweep.json", opts);
  ASSERT_TRUE(m.allOk());
  ASSERT_TRUE(writeMergedArtifact(m, dir + "/merged.json"));

  // The reader is the schema; host timing is zeroed for determinism.
  const std::vector<RunResult> runs =
      statsRunsFromJson(stats::json::parse(readFile(dir + "/merged.json")));
  ASSERT_EQ(runs.size(), 4u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].wallSeconds, 0.0);
    EXPECT_EQ(runs[i].status, RunStatus::Ok);
    EXPECT_EQ(runs[i].seed, jobRunSeed(m.jobs[i].spec.seed, m.jobs[i].spec.system,
                                       m.jobs[i].spec.workload, m.jobs[i].spec.threads));
  }
}

/// Where the number after the first `"key": ` at or after `from` starts in
/// `text`, and its length.
std::pair<std::size_t, std::size_t> numberAt(const std::string& text, const std::string& key,
                                             std::size_t from) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = text.find(tag, from);
  if (at == std::string::npos) throw std::logic_error("no " + tag + " in the document");
  const std::size_t start = at + tag.size();
  return {start, text.find_first_of(",\n}", start) - start};
}

std::string numberAfter(const std::string& text, const std::string& key,
                        std::size_t from = 0) {
  const auto [start, len] = numberAt(text, key, from);
  return text.substr(start, len);
}

std::string withNumber(std::string text, const std::string& key, const std::string& value,
                       std::size_t from = 0) {
  const auto [start, len] = numberAt(text, key, from);
  return text.replace(start, len, value);
}

TEST(Orchestrator, MergedRunIsThePerJobRun) {
  // One writer per schema: the merged document is the per-job artifacts'
  // run entries, byte for byte, with only "wall_seconds" zeroed.
  const std::string dir = tempDir("merged_runs");
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 2;
  runManifest(m, dir + "/sweep.json", opts);
  ASSERT_TRUE(m.allOk());
  ASSERT_TRUE(writeMergedArtifact(m, dir + "/merged.json"));

  const std::string head = "{\n  \"schema\": \"lktm.stats.v1\",\n  \"runs\": [\n";
  const std::string tail = "\n  ]\n}\n";
  std::string want = head;
  for (const JobRecord& j : m.jobs) {
    const std::string doc = withNumber(readFile(j.artifact), "wall_seconds", "0");
    ASSERT_EQ(doc.substr(0, head.size()), head);
    ASSERT_EQ(doc.substr(doc.size() - tail.size()), tail);
    if (want.size() > head.size()) want += ",\n";
    want += doc.substr(head.size(), doc.size() - head.size() - tail.size());
  }
  want += tail;
  EXPECT_EQ(readFile(dir + "/merged.json"), want);
}

TEST(Orchestrator, MergeRejectsAnInvalidJobArtifact) {
  // A per-job p99 hand-set to its p999: the stats reader rejects the
  // artifact, so merge must fail naming the job and the field, and leave no
  // merged file a reader would reject.
  const std::string dir = tempDir("merge_invalid");
  SweepManifest m = makeManifest(dir + "/runs", "typical", {"TL2-STM"}, {"ycsb"}, {4});
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, dir + "/sweep.json", opts);
  ASSERT_TRUE(m.allOk());
  const std::string artifact = readFile(m.jobs[0].artifact);
  const std::size_t lat = artifact.find("\"commit_latency\"");
  const std::string p999 = numberAfter(artifact, "p999", lat);
  ASSERT_NE(numberAfter(artifact, "p99", lat), p999);  // the corruption bites
  ASSERT_TRUE(writeFileAtomic(m.jobs[0].artifact, withNumber(artifact, "p99", p999, lat)));

  const std::string out = dir + "/merged.json";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(writeMergedArtifact(m, out));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(m.jobs[0].spec.id()), std::string::npos) << err;
  EXPECT_NE(err.find("commit_latency.p99"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(out));
}

TEST(Orchestrator, MergeWithNoOkJobFailsAndWritesNothing) {
  // Every job times out: there is no run to merge, and a document with an
  // empty "runs" is one the stats reader rejects.
  const std::string dir = tempDir("merge_none_ok");
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.jobCycleBudget = 10;
  runManifest(m, dir + "/sweep.json", opts);
  ASSERT_TRUE(m.complete());
  ASSERT_EQ(m.countIn(JobState::Timeout), m.jobs.size());
  const std::string out = dir + "/merged.json";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(writeMergedArtifact(m, out));
  testing::internal::GetCapturedStderr();
  EXPECT_FALSE(fs::exists(out));
}

}  // namespace
}  // namespace lktm::test
