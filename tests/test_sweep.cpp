// The sweep path end to end: exception capture, per-job determinism across
// host-thread counts, one seed meaning for every result, the manifest
// orchestrator (checkpoint/resume, retry classification, budgets) and the
// bit-identical merged-artifact guarantee an interrupted sweep must keep.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "config/artifact.hpp"
#include "config/orchestrator.hpp"
#include "config/sweep.hpp"
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

  const SweepManifest back = SweepManifest::fromJson(m.toJson());
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
  EXPECT_THROW((void)SweepManifest::fromJson(m.toJson()), std::runtime_error);
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

// ----------------------------------------------------- failure classification

TEST(Orchestrator, TransientFailureRetriesUpToMaxAttempts) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"A", "w", "typical", 2, 11};
  std::atomic<unsigned> calls{0};
  auto alwaysTransient = [&](const JobSpec&, const OrchestratorOptions&,
                             sim::SimContext&) -> RunResult {
    ++calls;
    throw TransientJobError("injected flake");
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 3;
  const OrchestratorReport rep = runManifest(m, "", opts, alwaysTransient);
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(m.jobs[0].attempts, 3u);
  EXPECT_EQ(m.jobs[0].state, JobState::Failed);
  EXPECT_EQ(rep.retried, 2u);
  EXPECT_EQ(rep.failed, 1u);
}

TEST(Orchestrator, TransientFailureSucceedsOnRetry) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"Baseline", "counter", "typical", 2, 11};
  std::atomic<unsigned> calls{0};
  auto flaky = [&](const JobSpec& spec, const OrchestratorOptions& o,
                   sim::SimContext& ctx) -> RunResult {
    if (++calls == 1) throw TransientJobError("first attempt flakes");
    return runSpec(spec, o, ctx);
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 2;
  std::vector<RunResult> results;
  const OrchestratorReport rep = runManifest(m, "", opts, flaky, &results);
  EXPECT_EQ(calls.load(), 2u);
  EXPECT_EQ(m.jobs[0].state, JobState::Ok);
  EXPECT_EQ(m.jobs[0].attempts, 2u);
  EXPECT_EQ(rep.retried, 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok()) << results[0].str();
}

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
  opts.maxAttempts = 5;
  runManifest(m, "", opts, crash);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(m.jobs[0].state, JobState::Failed);
  EXPECT_NE(m.jobs[0].diagnostic.find("deterministic bug"), std::string::npos);
}

TEST(Orchestrator, WallClockTimeoutClassifiesTransient) {
  RunResult r;
  r.status = RunStatus::Timeout;
  r.diagnostic = "wall-clock budget exceeded (simulated cycle 1234)";
  EXPECT_TRUE(isTransientFailure(r));
  // A simulated-cycle budget timeout reproduces deterministically.
  r.diagnostic = "cycle budget exceeded";
  EXPECT_FALSE(isTransientFailure(r));
  r.status = RunStatus::Hang;
  r.diagnostic = "no forward progress";
  EXPECT_FALSE(isTransientFailure(r));
  r.status = RunStatus::Failed;
  r.diagnostic = "transient: injected";
  EXPECT_TRUE(isTransientFailure(r));
  r.diagnostic = "exception: boom";
  EXPECT_FALSE(isTransientFailure(r));
}

TEST(Orchestrator, WallBudgetEndsRunAsTimeout) {
  // An unmeetable host wall-clock budget must surface as RunStatus::Timeout
  // (transient), not as a hang, and must not retry past maxAttempts.
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"LockillerTM", "genome", "typical", 8, 11};
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 1;
  opts.jobWallBudgetSeconds = 1e-9;
  std::vector<RunResult> results;
  runManifest(m, "", opts, {}, &results);
  EXPECT_EQ(m.jobs[0].state, JobState::Timeout);
  EXPECT_EQ(m.jobs[0].attempts, 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Timeout);
  EXPECT_NE(results[0].diagnostic.find("wall-clock"), std::string::npos);
  EXPECT_TRUE(isTransientFailure(results[0]));
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
  opts.maxAttempts = 3;
  opts.jobCycleBudget = 50;  // far too small for any real run
  std::vector<RunResult> results;
  runManifest(m, "", opts, counting, &results);
  EXPECT_EQ(m.jobs[0].state, JobState::Timeout);
  // Deterministic timeout: retrying cannot help, so exactly one attempt.
  EXPECT_EQ(calls.load(), 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Timeout);
  EXPECT_FALSE(isTransientFailure(results[0]));
}

// ----------------------------------------------------------------- artifacts

TEST(Orchestrator, AtomicWriteFailureLeavesNothingBehind) {
  const std::string dir = tempDir("atomic_fail");
  // The directory does not exist: nothing can be written.
  const std::string missing = dir + "/absent/out.json";
  EXPECT_FALSE(writeFileAtomic(missing, "{}", "w0"));
  EXPECT_FALSE(fs::exists(missing));
  EXPECT_FALSE(fs::exists(dir + "/absent"));
  // The tmp file is written but cannot be renamed over the target (a
  // non-empty directory): the tmp file must be cleaned up.
  const std::string blocked = dir + "/out.json";
  fs::create_directories(blocked + "/keep");
  EXPECT_FALSE(writeFileAtomic(blocked, "{}", "w0"));
  EXPECT_TRUE(fs::is_directory(blocked + "/keep"));
  std::vector<std::string> entries;
  for (const auto& e : fs::directory_iterator(dir)) {
    entries.push_back(e.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"out.json"});
  // The same helper succeeds once the target is writable.
  const std::string ok = dir + "/ok.json";
  EXPECT_TRUE(writeFileAtomic(ok, "{}\n", "w0"));
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

  const auto doc = stats::json::parse(readFile(dir + "/merged.json"));
  const auto* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text, kStatsSchema);
  const auto* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->isArray());
  ASSERT_EQ(runs->array->size(), 4u);
  for (const auto& run : *runs->array) {
    const auto* wall = run.find("wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->number, 0.0);  // host timing zeroed for determinism
    const auto* status = run.find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->text, "ok");
    EXPECT_NE(run.find("seed"), nullptr);
  }
}

}  // namespace
}  // namespace lktm::test
