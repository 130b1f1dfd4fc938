// Manifest-driven sweep driver: plan a sweep once, run it (resumably, with
// per-job watchdogs and bounded retry), fan it out across worker processes
// and hosts, inspect its state, and merge the per-job artifacts into one
// lktm.stats.v1 document (optionally condensed to lktm.summary.v1).
//
//   lktm_sweep plan --preset smoke --manifest sweep.json --shards 3
//   lktm_sweep run --manifest sweep.json --host-threads 4      # one process
//   lktm_sweep work --manifest sweep.json --worker-id host1-a  # many
//   lktm_sweep status --manifest sweep.json
//   lktm_sweep merge --manifest sweep.json --out merged.json
//   lktm_sweep summarize --in merged.json --out summary.json
//
// `run` and `work` are idempotent: completed jobs are skipped, a job
// interrupted mid-run restarts (or is reclaimed from a dead worker), and the
// merged output is bit-identical no matter how many workers ran it, where,
// or how often they died. `work` coordinates purely through the claim spool
// next to the manifest (<manifest>.claims by default) — point every worker
// at the same directory (shared mount) and they divide the sweep without a
// daemon.
#include <chrono>
#include <filesystem>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "config/artifact.hpp"
#include "config/distrib.hpp"
#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/systems.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace lktm;

void usage() {
  std::printf(
      "usage: lktm_sweep <command> [options]\n"
      "commands:\n"
      "  plan    create a job manifest\n"
      "    --manifest PATH      manifest file to write (required)\n"
      "    --artifact-dir DIR   per-job artifact directory (default: <manifest>.d)\n"
      "    --preset NAME        smoke | figures | table2-backends |\n"
      "                         table3-dbtraffic | bigcores-128 | bigcores-256\n"
      "                         (default smoke; bigcores-* need a build with\n"
      "                         -DLKTM_MAX_CORES large enough, e.g. the\n"
      "                         'bigcores' CMake preset)\n"
      "    --seed N             workload seed (default 11)\n"
      "    --shards N           shard count for distributed workers (default 1)\n"
      "  run     execute the pending jobs of a manifest (resumable, one process)\n"
      "    --manifest PATH      manifest file (required; updated in place)\n"
      "    --host-threads N     worker threads (default: hardware)\n"
      "    --max-jobs N         stop after N jobs this invocation (0 = all)\n"
      "    --max-attempts N     attempts for transient failures (default 2)\n"
      "    --retry-backoff S    seconds before first retry, doubling (default 0.5)\n"
      "    --wall-budget S      per-job host wall-clock budget (0 = none)\n"
      "    --cycle-budget N     per-job simulated-cycle ceiling (0 = machine)\n"
      "    --rerun-failed       re-run jobs recorded as failed/hang/timeout\n"
      "    --quiet              no per-job progress, no summary line\n"
      "  work    join a distributed sweep as one worker (many processes/hosts)\n"
      "    --manifest PATH      manifest file (required; read-only — state\n"
      "                         lives in the claim spool)\n"
      "    --worker-id ID       unique worker name (required; e.g. host-3)\n"
      "    --claim-dir DIR      claim spool shared by all workers\n"
      "                         (default: <manifest>.claims)\n"
      "    --shard K            preferred shard (default: derived from ID)\n"
      "    --heartbeat S        heartbeat rewrite cadence (default 2)\n"
      "    --lease S            reclaim a claim after its owner's heartbeat\n"
      "                         froze this long (default 30)\n"
      "    --poll S             idle wait between claim scans (default 0.2)\n"
      "    plus run's --host-threads/--max-jobs/--max-attempts/\n"
      "    --retry-backoff/--wall-budget/--cycle-budget/--quiet\n"
      "  status  per-state counts, failed jobs, worker liveness, [done/total]\n"
      "    --manifest PATH\n"
      "    --claim-dir DIR      (default: <manifest>.claims)\n"
      "  merge   write the combined artifact of every completed job\n"
      "    --manifest PATH\n"
      "    --out PATH           merged lktm.stats.v1 (required)\n"
      "    --summary PATH       also write the compact lktm.summary.v1\n"
      "    --save-manifest      fold claim state back into the manifest file\n"
      "  summarize  condense a merged lktm.stats.v1 into lktm.summary.v1\n"
      "    --in PATH            merged artifact (required)\n"
      "    --out PATH           summary file (required)\n");
}

cfg::SweepManifest planPreset(const std::string& preset, const std::string& artifactDir,
                              std::uint64_t seed) {
  if (preset == "smoke") {
    // Micro workloads only: seconds, not minutes — the CI resume test runs
    // this twice.
    return cfg::makeManifest(artifactDir, "typical", {"Baseline", "LockillerTM"},
                             {"counter", "bank"}, {2, 4}, seed);
  }
  if (preset == "figures") {
    std::vector<std::string> systems;
    for (const auto& s : cfg::evaluatedSystems()) systems.push_back(s.name);
    // Figs 1/7-12: the full Table II grid on the typical machine.
    cfg::SweepManifest m = cfg::makeManifest(artifactDir, "typical", systems,
                                             wl::stampNames(), {2, 4, 8, 16, 32}, seed);
    // Fig 13 cache-sensitivity: every system at max threads on the small and
    // large machines.
    for (const char* machine : {"small-cache", "large-cache"}) {
      cfg::SweepManifest extra =
          cfg::makeManifest(artifactDir, machine, systems, wl::stampNames(), {32}, seed);
      for (auto& j : extra.jobs) m.jobs.push_back(std::move(j));
    }
    return m;
  }
  if (preset == "table2-backends") {
    // The TM-backend comparison rows (Table II bottom block): the hardware
    // lockiller flagship vs. the lock baseline vs. the software TL2 and the
    // hybrid HTM/STM fallback, across all eight STAMP analogs.
    return cfg::makeManifest(artifactDir, "typical",
                             {"LockillerTM", "CGL", "TL2-STM", "Hybrid-TM"},
                             wl::stampNames(), {8}, seed);
  }
  if (preset == "table3-dbtraffic") {
    // Database-shaped traffic (Table III): skewed YCSB mixes, TPC-C-lite and
    // the SPS swap stressor across every TM backend, judged on the
    // commit-latency percentiles in the derived block rather than on mean
    // throughput.
    return cfg::makeManifest(artifactDir, "typical",
                             {"LockillerTM", "CGL", "TL2-STM", "Hybrid-TM"},
                             {"ycsb", "ycsb-lo", "ycsb-w", "ycsb-scan", "tpcc",
                              "sps", "sps-part"},
                             {8}, seed);
  }
  if (preset == "bigcores-128" || preset == "bigcores-256") {
    // Fig 7/12-style speedup grids past 64 cores: the headline systems
    // (Baseline, LosaTM-SAFU, LockillerTM) on a banked large-core machine.
    // Needs a build configured with -DLKTM_MAX_CORES >= the core count (the
    // 'bigcores' CMake preset); plan-time validation below rejects a
    // too-small build with a rebuild hint instead of failing mid-sweep.
    const bool big = preset == "bigcores-256";
    const std::string machine = big ? "typical-c256-b16" : "typical-c128-b8";
    const std::vector<unsigned> threads =
        big ? std::vector<unsigned>{64, 128, 256} : std::vector<unsigned>{32, 64, 128};
    cfg::machineByName(machine).validate();  // throws the rebuild hint
    return cfg::makeManifest(artifactDir, machine,
                             {"Baseline", "LosaTM-SAFU", "LockillerTM"},
                             {"genome", "ssca2", "kmeans+", "vacation+"}, threads,
                             seed);
  }
  throw std::invalid_argument(
      "unknown preset: " + preset +
      " (try smoke | figures | table2-backends | table3-dbtraffic | "
      "bigcores-128 | bigcores-256)");
}

/// Condense the merged lktm.stats.v1 at `inPath` into lktm.summary.v1 at
/// `outPath`.
bool summarize(const std::string& inPath, const std::string& outPath) {
  std::ostringstream os;
  cfg::writeSummaryArtifact(stats::json::parse(cfg::readFile(inPath)), os);
  return cfg::writeFileAtomic(outPath, os.str());
}

/// Test hook: LKTM_SWEEP_JOB_DELAY_MS=N sleeps N ms before each job so CI
/// can reliably SIGKILL a worker mid-run. Off (0) in normal operation.
cfg::JobRunner delayedRunner() {
  const char* env = std::getenv("LKTM_SWEEP_JOB_DELAY_MS");
  const double ms = env != nullptr ? std::atof(env) : 0.0;
  if (ms <= 0.0) return {};
  return [ms](const cfg::JobSpec& spec, const cfg::OrchestratorOptions& o,
              sim::SimContext& ctx) {
    std::this_thread::sleep_for(std::chrono::duration<double>(ms / 1000.0));
    return cfg::runSpec(spec, o, ctx);
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  std::string manifestPath;
  std::string artifactDir;
  std::string preset = "smoke";
  std::string outPath;
  std::string inPath;
  std::string summaryPath;
  std::uint64_t seed = cfg::kDefaultSweepSeed;
  std::uint64_t shards = 1;
  bool quiet = false;
  bool saveManifest = false;
  cfg::OrchestratorOptions opts;
  opts.retryBackoffSeconds = 0.5;
  opts.progress = &std::cerr;
  cfg::WorkerOptions wopts;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--manifest") {
      manifestPath = next();
    } else if (a == "--artifact-dir") {
      artifactDir = next();
    } else if (a == "--preset") {
      preset = next();
    } else if (a == "--seed") {
      seed = static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (a == "--shards") {
      shards = static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (a == "--out") {
      outPath = next();
    } else if (a == "--in") {
      inPath = next();
    } else if (a == "--summary") {
      summaryPath = next();
    } else if (a == "--save-manifest") {
      saveManifest = true;
    } else if (a == "--worker-id") {
      wopts.workerId = next();
    } else if (a == "--claim-dir") {
      wopts.claimDir = next();
    } else if (a == "--shard") {
      wopts.shard = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (a == "--heartbeat") {
      wopts.heartbeatSeconds = std::atof(next());
    } else if (a == "--lease") {
      wopts.leaseSeconds = std::atof(next());
    } else if (a == "--poll") {
      wopts.pollSeconds = std::atof(next());
    } else if (a == "--host-threads") {
      opts.hostThreads = static_cast<unsigned>(std::atoi(next()));
    } else if (a == "--max-jobs") {
      opts.maxJobs = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (a == "--max-attempts") {
      opts.maxAttempts = static_cast<unsigned>(std::atoi(next()));
    } else if (a == "--retry-backoff") {
      opts.retryBackoffSeconds = std::atof(next());
    } else if (a == "--wall-budget") {
      opts.jobWallBudgetSeconds = std::atof(next());
    } else if (a == "--cycle-budget") {
      opts.jobCycleBudget = static_cast<Cycle>(std::strtoull(next(), nullptr, 10));
    } else if (a == "--rerun-failed") {
      opts.rerunFailed = true;
    } else if (a == "--quiet") {
      // Quiet means quiet: per-job progress AND the final summary lines.
      quiet = true;
      opts.progress = nullptr;
    } else {
      usage();
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }

  try {
    if (cmd == "summarize") {
      if (inPath.empty() || outPath.empty()) {
        std::fprintf(stderr, "error: summarize needs --in and --out\n");
        return 2;
      }
      if (!summarize(inPath, outPath)) return 1;
      if (!quiet) std::printf("summarized %s -> %s\n", inPath.c_str(), outPath.c_str());
      return 0;
    }

    if (manifestPath.empty()) {
      std::fprintf(stderr, "error: --manifest is required\n");
      return 2;
    }
    if (wopts.claimDir.empty()) wopts.claimDir = manifestPath + ".claims";

    if (cmd == "plan") {
      if (artifactDir.empty()) artifactDir = manifestPath + ".d";
      if (shards == 0) {
        std::fprintf(stderr, "error: --shards must be >= 1\n");
        return 2;
      }
      cfg::SweepManifest m = planPreset(preset, artifactDir, seed);
      m.shards = shards;
      if (!m.save(manifestPath)) return 1;
      if (!quiet) {
        std::printf("%s: %zu jobs (%s), %llu shard%s, artifacts in %s\n",
                    manifestPath.c_str(), m.jobs.size(), preset.c_str(),
                    static_cast<unsigned long long>(m.shards),
                    m.shards == 1 ? "" : "s", artifactDir.c_str());
      }
      return 0;
    }

    cfg::SweepManifest m = cfg::SweepManifest::load(manifestPath);

    if (cmd == "run") {
      // A claim spool means distributed workers own this manifest's state;
      // the single-process runner would race them and clobber the file.
      namespace fs = std::filesystem;
      if (fs::exists(wopts.claimDir)) {
        std::fprintf(stderr,
                     "error: claim spool %s exists — this manifest is being "
                     "executed by distributed workers; use 'work' (or "
                     "status/merge)\n",
                     wopts.claimDir.c_str());
        return 2;
      }
      const cfg::OrchestratorReport rep = cfg::runManifest(m, manifestPath, opts);
      if (!quiet) {
        std::printf("ran %zu, skipped %zu, retried %zu; ok %zu, failed %zu, total %zu\n",
                    rep.ran, rep.skipped, rep.retried, rep.ok, rep.failed,
                    m.jobs.size());
        if (!m.complete()) {
          std::printf("manifest incomplete (%zu pending) — re-run to resume\n",
                      m.countIn(cfg::JobState::Pending));
        }
      }
      return m.complete() && m.allOk() ? 0 : 1;
    }
    if (cmd == "work") {
      if (wopts.workerId.empty()) {
        std::fprintf(stderr, "error: work needs --worker-id\n");
        return 2;
      }
      const cfg::OrchestratorReport rep =
          cfg::runWorker(m, wopts, opts, delayedRunner());
      if (!quiet) {
        std::printf(
            "worker %s: ran %zu, retried %zu; ok %zu, failed %zu, total %zu\n",
            wopts.workerId.c_str(), rep.ran, rep.retried, rep.ok, rep.failed,
            m.jobs.size());
      }
      return m.complete() && m.allOk() ? 0 : 1;
    }
    if (cmd == "status") {
      const std::size_t folded = cfg::foldClaimState(m, wopts.claimDir);
      for (const auto s : {cfg::JobState::Pending, cfg::JobState::Running,
                           cfg::JobState::Ok, cfg::JobState::Failed,
                           cfg::JobState::Hang, cfg::JobState::Timeout}) {
        std::printf("%-8s %zu\n", toString(s), m.countIn(s));
      }
      for (const auto& j : m.jobs) {
        if (j.state == cfg::JobState::Failed || j.state == cfg::JobState::Hang ||
            j.state == cfg::JobState::Timeout) {
          std::printf("  %s: %s (%u attempts) %s\n", j.spec.id().c_str(),
                      toString(j.state), j.attempts, j.diagnostic.c_str());
        }
      }
      if (folded > 0 || std::filesystem::exists(wopts.claimDir)) {
        // Distributed view, assembled from claim state — not from any one
        // process's private stderr counter.
        const cfg::ClaimStore store(wopts.claimDir, "status");
        const auto claimed = store.listClaimed();
        // lktm-lint: allow(no-wall-clock) -- heartbeat ages are display-only
        const auto wallNow = std::chrono::system_clock::now();
        const double now =
            std::chrono::duration<double>(wallNow.time_since_epoch()).count();
        for (const auto& h : store.listHeartbeats()) {
          std::size_t held = 0;
          for (const auto& c : claimed) held += c.worker == h.worker ? 1 : 0;
          // Age from the writer's wall clock: display-only (reclamation never
          // compares clocks across hosts).
          std::printf("worker %-16s heartbeat %.1fs ago (seq %llu), %zu job%s held\n",
                      h.worker.c_str(), now - h.unixSeconds,
                      static_cast<unsigned long long>(h.seq), held,
                      held == 1 ? "" : "s");
        }
        const std::size_t total = m.jobs.size();
        const std::size_t done = total - m.countIn(cfg::JobState::Pending) -
                                 m.countIn(cfg::JobState::Running);
        double wallSum = 0.0;
        std::size_t wallN = 0;
        for (const auto& j : m.jobs) {
          if (j.state != cfg::JobState::Pending &&
              j.state != cfg::JobState::Running && j.wallSeconds > 0.0) {
            wallSum += j.wallSeconds;
            ++wallN;
          }
        }
        // ETA only when there is a measured rate: zero completed jobs or
        // all-zero wall times have nothing to extrapolate.
        char eta[64];
        if (done < total && wallN > 0 && wallSum > 0.0) {
          std::snprintf(eta, sizeof(eta), ", eta ~%.0fs of work left",
                        wallSum / static_cast<double>(wallN) *
                            static_cast<double>(total - done));
        } else {
          eta[0] = '\0';
        }
        std::printf("[%zu/%zu] done%s\n", done, total, eta);
      }
      return 0;
    }
    if (cmd == "merge") {
      if (outPath.empty()) {
        std::fprintf(stderr, "error: merge needs --out\n");
        return 2;
      }
      cfg::foldClaimState(m, wopts.claimDir);
      if (!m.complete()) {
        std::fprintf(stderr, "error: manifest has unfinished jobs (%zu pending, %zu running)\n",
                     m.countIn(cfg::JobState::Pending),
                     m.countIn(cfg::JobState::Running));
        return 1;
      }
      if (saveManifest && !m.save(manifestPath)) return 1;
      if (!cfg::writeMergedArtifact(m, outPath)) return 1;
      if (!summaryPath.empty() && !summarize(outPath, summaryPath)) return 1;
      if (!quiet) {
        std::size_t merged = m.countIn(cfg::JobState::Ok);
        std::printf("merged %zu runs into %s\n", merged, outPath.c_str());
        if (!summaryPath.empty()) {
          std::printf("summary in %s\n", summaryPath.c_str());
        }
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
