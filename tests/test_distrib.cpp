// The distributed worker-pull layer: deterministic shard assignment, the
// rename-based claim spool (exactly-one-winner take, attempts travelling
// through reclaim, done-beats-claimed), dead-worker reclamation via frozen
// heartbeat fingerprints, claim-state folding precedence, manifest v2
// round-trip (v1 is rejected) — and the headline guarantee that a sweep
// split across workers (one of them "killed") merges byte-identical to a
// single-process run.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "config/artifact.hpp"
#include "config/distrib.hpp"
#include "config/orchestrator.hpp"

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

/// Micro-workload grid: every job finishes in milliseconds, small enough to
/// run several times per test.
SweepManifest testManifest(const std::string& artifactDir) {
  return makeManifest(artifactDir, "typical", {"Baseline", "LockillerTM"},
                      {"counter", "bank"}, {2}, kDefaultSweepSeed);
}

// ---------------------------------------------------------------- sharding

TEST(Distrib, ShardAssignmentIsDeterministicAndInRange) {
  const SweepManifest m = testManifest("unused");
  for (const std::uint64_t shards : {1ull, 2ull, 3ull, 7ull}) {
    for (const JobRecord& j : m.jobs) {
      const std::size_t s = jobShard(j.spec, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(jobShard(j.spec, shards), s);  // stable on re-evaluation
    }
  }
}

TEST(Distrib, ShardAssignmentSeparatesMachines) {
  // jobRunSeed deliberately ignores the machine name; the shard hash must
  // not, or fig13-style grids (same cell on several machines) would pile
  // onto one shard. With 64 shards a collision across all four cells is
  // vanishingly unlikely unless the machine is being ignored.
  JobSpec a{.system = "Baseline", .workload = "counter", .machine = "typical",
            .threads = 2};
  JobSpec b = a;
  b.machine = "small-cache";
  bool differs = false;
  for (std::uint64_t shards : {64ull, 67ull, 128ull}) {
    differs = differs || jobShard(a, shards) != jobShard(b, shards);
  }
  EXPECT_TRUE(differs);
}

TEST(Distrib, ShardsCoverEveryJobExactlyOnce) {
  // The job -> shard map is a partition: work stealing aside, N workers each
  // preferring a distinct shard touch disjoint claim sets.
  const SweepManifest m = testManifest("unused");
  const std::uint64_t shards = 3;
  std::size_t total = 0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    for (const JobRecord& j : m.jobs) {
      total += jobShard(j.spec, shards) == s ? 1 : 0;
    }
  }
  EXPECT_EQ(total, m.jobs.size());
}

// ---------------------------------------------------------------- claim spool

TEST(Distrib, TakeRaceHasExactlyOneWinner) {
  const std::string root = tempDir("claim_race");
  SweepManifest m = testManifest(root + "/art");
  m.jobs.resize(1);
  const std::string stem = jobFileStem(m.jobs[0].spec);

  ClaimStore seeder(root + "/claims", "seeder");
  seeder.init();
  ASSERT_EQ(seeder.seed(m), 1u);

  // 8 workers race the same todo token through rename; POSIX promises the
  // source vanishes for all but one.
  constexpr int kWorkers = 8;
  std::atomic<int> wins{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      ClaimStore store(root + "/claims", "w" + std::to_string(w));
      ready.fetch_add(1);
      while (ready.load() < kWorkers) {
      }
      ClaimRecord c;
      if (store.take(stem, c)) {
        wins.fetch_add(1);
        EXPECT_EQ(c.worker, "w" + std::to_string(w));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_FALSE(seeder.todoExists(stem));
  ASSERT_EQ(seeder.listClaimed().size(), 1u);
}

TEST(Distrib, ReclaimCarriesAttemptsBackToTodo) {
  const std::string root = tempDir("claim_attempts");
  SweepManifest m = testManifest(root + "/art");
  m.jobs.resize(1);
  const std::string stem = jobFileStem(m.jobs[0].spec);

  ClaimStore w1(root + "/claims", "w1");
  w1.init();
  w1.seed(m);

  ClaimRecord c;
  ASSERT_TRUE(w1.take(stem, c));
  EXPECT_EQ(c.attempts, 0u);
  c.attempts = 3;  // w1 burned three attempts, then "dies"
  w1.publishClaim(c);

  ClaimStore w2(root + "/claims", "w2");
  ASSERT_TRUE(w2.reclaim(stem));
  ASSERT_TRUE(w2.todoExists(stem));

  ClaimRecord c2;
  ASSERT_TRUE(w2.take(stem, c2));
  EXPECT_EQ(c2.attempts, 3u);  // the budget survived the owner's death
  EXPECT_EQ(c2.worker, "w2");
  EXPECT_EQ(c2.id, m.jobs[0].spec.id());
}

TEST(Distrib, DoneBeatsClaimedOnReclaim) {
  // Owner finished and died before unclaiming: reclaim must drop the stale
  // claim instead of resurrecting the job.
  const std::string root = tempDir("claim_donewins");
  SweepManifest m = testManifest(root + "/art");
  m.jobs.resize(1);
  const std::string stem = jobFileStem(m.jobs[0].spec);

  ClaimStore w1(root + "/claims", "w1");
  w1.init();
  w1.seed(m);
  ClaimRecord c;
  ASSERT_TRUE(w1.take(stem, c));
  JobRecord done = m.jobs[0];
  done.state = JobState::Ok;
  done.attempts = 1;
  done.artifact = "done.json";
  ASSERT_TRUE(w1.markDone(done));
  // Fake the crash window: the claim file still exists alongside done/.
  w1.publishClaim(c);

  ClaimStore w2(root + "/claims", "w2");
  EXPECT_FALSE(w2.reclaim(stem));
  EXPECT_FALSE(w2.todoExists(stem));
  EXPECT_TRUE(w2.doneExists(stem));
  EXPECT_TRUE(w2.listClaimed().empty());
}

TEST(Distrib, SeedingIsIdempotent) {
  const std::string root = tempDir("claim_seed");
  SweepManifest m = testManifest(root + "/art");
  ClaimStore a(root + "/claims", "a");
  a.init();
  EXPECT_EQ(a.seed(m), m.jobs.size());
  ClaimStore b(root + "/claims", "b");
  EXPECT_EQ(b.seed(m), 0u);  // second seeder creates nothing
  EXPECT_EQ(a.listTodo().size(), m.jobs.size());
}

// ---------------------------------------------------------------- folding

TEST(Distrib, FoldClaimStatePrecedence) {
  const std::string root = tempDir("fold");
  SweepManifest m = testManifest(root + "/art");
  ASSERT_EQ(m.jobs.size(), 4u);
  ClaimStore store(root + "/claims", "w1");
  store.init();
  store.seed(m);

  const std::string s0 = jobFileStem(m.jobs[0].spec);
  const std::string s1 = jobFileStem(m.jobs[1].spec);
  ClaimRecord c;
  ASSERT_TRUE(store.take(s0, c));
  JobRecord failedRec = m.jobs[0];
  failedRec.state = JobState::Failed;
  failedRec.attempts = 2;
  failedRec.diagnostic = "boom";
  store.markDone(failedRec);
  ASSERT_TRUE(store.take(s1, c));  // stays claimed -> Running

  // Job 3 has no spool entry at all: folding must leave its state alone.
  const std::string s3 = jobFileStem(m.jobs[3].spec);
  store.discardTodo(s3);
  m.jobs[3].state = JobState::Ok;
  m.jobs[3].artifact = "kept.json";

  EXPECT_EQ(foldClaimState(m, root + "/claims"), 1u);
  EXPECT_EQ(m.jobs[0].state, JobState::Failed);
  EXPECT_EQ(m.jobs[0].attempts, 2u);
  EXPECT_EQ(m.jobs[0].diagnostic, "boom");
  EXPECT_EQ(m.jobs[1].state, JobState::Running);
  EXPECT_EQ(m.jobs[2].state, JobState::Pending);
  EXPECT_EQ(m.jobs[3].state, JobState::Ok);
  EXPECT_EQ(m.jobs[3].artifact, "kept.json");

  // Missing claim dir is a no-op, not an error.
  EXPECT_EQ(foldClaimState(m, root + "/nonexistent"), 0u);
}

// ---------------------------------------------------------------- manifest v2

TEST(Distrib, ManifestV2RoundTripsShards) {
  SweepManifest m = testManifest("art");
  m.shards = 5;
  const SweepManifest back = SweepManifest::fromJson(m.toJson());
  EXPECT_EQ(back.shards, 5u);
  EXPECT_EQ(back.jobs.size(), m.jobs.size());
  EXPECT_NE(m.toJson().find(kManifestSchema), std::string::npos);

  // The pre-shards lktm.manifest.v1 format is no longer read: such a
  // document is malformed, with or without a "shards" field.
  std::string v1 = m.toJson();
  const auto schemaAt = v1.find(kManifestSchema);
  ASSERT_NE(schemaAt, std::string::npos);
  v1.replace(schemaAt, std::string(kManifestSchema).size(), "lktm.manifest.v1");
  EXPECT_THROW((void)SweepManifest::fromJson(v1), std::runtime_error);
  const auto shardsAt = v1.find("\"shards\": 5,\n");
  ASSERT_NE(shardsAt, std::string::npos);
  v1.erase(shardsAt, std::string("\"shards\": 5,\n").size());
  EXPECT_THROW((void)SweepManifest::fromJson(v1), std::runtime_error);
}

// ------------------------------------------------------------- runWorker

TEST(Distrib, TwoWorkersMergeBitIdenticalToSingleProcess) {
  // The tentpole guarantee: N workers pulling from one spool produce exactly
  // the bytes one process would have.
  const std::string dsingle = tempDir("distrib_single");
  SweepManifest single = testManifest(dsingle + "/art");
  OrchestratorOptions opts;
  opts.hostThreads = 2;
  runManifest(single, "", opts);
  ASSERT_TRUE(single.allOk());
  ASSERT_TRUE(writeMergedArtifact(single, dsingle + "/merged.json"));

  const std::string dmulti = tempDir("distrib_multi");
  SweepManifest planned = testManifest(dmulti + "/art");
  planned.shards = 2;
  OrchestratorOptions wo;
  wo.hostThreads = 1;
  std::vector<std::thread> workers;
  std::vector<SweepManifest> views(2, planned);
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      WorkerOptions wopts;
      wopts.workerId = "w" + std::to_string(w);
      wopts.claimDir = dmulti + "/claims";
      wopts.shard = static_cast<std::size_t>(w);
      wopts.heartbeatSeconds = 0.05;
      wopts.pollSeconds = 0.01;
      runWorker(views[w], wopts, wo);
    });
  }
  for (auto& t : workers) t.join();

  SweepManifest merged = planned;
  EXPECT_EQ(foldClaimState(merged, dmulti + "/claims"), merged.jobs.size());
  ASSERT_TRUE(merged.complete());
  ASSERT_TRUE(merged.allOk());
  ASSERT_TRUE(writeMergedArtifact(merged, dmulti + "/merged.json"));

  EXPECT_EQ(readFile(dsingle + "/merged.json"), readFile(dmulti + "/merged.json"));

  // Both workers actually did something (shard preference spread the work).
  std::set<std::string> finishers;
  const ClaimStore check(dmulti + "/claims", "check");
  for (const JobRecord& j : merged.jobs) {
    JobRecord done;
    std::string worker;
    ASSERT_TRUE(check.readDone(jobFileStem(j.spec), done, &worker));
    finishers.insert(worker);
  }
  EXPECT_EQ(finishers.size(), 2u);
}

TEST(Distrib, DeadWorkerJobIsReclaimedAndFinished) {
  // w1 claims a job, heartbeats once, then "dies" (SIGKILL equivalent: the
  // claim and a frozen heartbeat remain). w2, with a short lease, must
  // reclaim it — attempts intact — and finish the whole sweep.
  const std::string root = tempDir("distrib_reclaim");
  SweepManifest m = testManifest(root + "/art");
  ClaimStore w1(root + "/claims", "w1");
  w1.init();
  w1.seed(m);
  w1.writeHeartbeat(7);
  const std::string stem = jobFileStem(m.jobs[0].spec);
  ClaimRecord c;
  ASSERT_TRUE(w1.take(stem, c));
  c.attempts = 1;
  w1.publishClaim(c);  // one attempt burned before the crash

  SweepManifest view = testManifest(root + "/art");
  WorkerOptions wopts;
  wopts.workerId = "w2";
  wopts.claimDir = root + "/claims";
  wopts.heartbeatSeconds = 0.05;
  wopts.leaseSeconds = 0.3;
  wopts.pollSeconds = 0.02;
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport rep = runWorker(view, wopts, opts);

  EXPECT_TRUE(view.complete());
  EXPECT_TRUE(view.allOk());
  EXPECT_EQ(rep.ran, view.jobs.size());  // including the reclaimed one
  JobRecord done;
  std::string worker;
  ASSERT_TRUE(w1.readDone(stem, done, &worker));
  EXPECT_EQ(worker, "w2");
  EXPECT_EQ(done.attempts, 2u);  // inherited 1 + w2's successful attempt
  EXPECT_TRUE(w1.listClaimed().empty());
}

}  // namespace
}  // namespace lktm::test
