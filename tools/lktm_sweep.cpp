// Manifest-driven sweep driver: plan a sweep once, run it in one process
// (resumably, on a pool of host threads, each job once, bounded only by
// simulated-cycle budgets), inspect its state, and merge the per-job
// artifacts into one lktm.stats.v1 document (optionally condensed to
// lktm.summary.v1).
//
//   lktm_sweep plan --preset smoke --manifest sweep.json
//   lktm_sweep run --manifest sweep.json --host-threads 4
//   lktm_sweep status --manifest sweep.json
//   lktm_sweep merge --manifest sweep.json --out merged.json --summary summary.json
//
// `run` is idempotent: completed jobs are skipped, a job interrupted
// mid-run restarts, and the merged output is bit-identical no matter how
// many host threads ran it or how often the run was killed and resumed.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cli_number.hpp"
#include "config/artifact.hpp"
#include "config/orchestrator.hpp"

namespace {

using namespace lktm;

void usage() {
  std::printf(
      "usage: lktm_sweep <command> [options]\n"
      "commands:\n"
      "  plan    create a job manifest\n"
      "    --manifest PATH      manifest file to write (required)\n"
      "    --artifact-dir DIR   per-job artifact directory (default: <manifest>.d)\n"
      "    --preset NAME        smoke | figures | ablations | table2-backends |\n"
      "                         table3-dbtraffic | bigcores-128 | bigcores-256\n"
      "                         (default smoke; bigcores-* run 128 and 256\n"
      "                         cores, within the 512-core limit)\n"
      "    --seed N             workload seed (default 11)\n"
      "  run     execute the pending jobs of a manifest (resumable, one process)\n"
      "    --manifest PATH      manifest file (required; updated in place)\n"
      "    --host-threads N     worker threads (default: hardware)\n"
      "    --max-jobs N         stop after N jobs this invocation (0 = all)\n"
      "    --cycle-budget N     per-job simulated-cycle ceiling (0 = machine)\n"
      "    --rerun-failed       re-run jobs recorded as failed/hang/timeout\n"
      "    --quiet              no per-job progress, no summary line\n"
      "  status  per-state counts, failed jobs, [done/total] and ETA\n"
      "    --manifest PATH\n"
      "  merge   write the combined artifact of every completed job\n"
      "    --manifest PATH\n"
      "    --out PATH           merged lktm.stats.v1 (required)\n"
      "    --summary PATH       also write the compact lktm.summary.v1\n");
}

/// Condense the merged lktm.stats.v1 at `inPath` into lktm.summary.v1 at
/// `outPath` (merge --summary).
bool summarize(const std::string& inPath, const std::string& outPath) {
  std::ostringstream os;
  cfg::writeSummaryArtifact(stats::json::parse(cfg::readFile(inPath)), os);
  return cfg::writeFileAtomic(outPath, os.str());
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
  std::string summaryPath;
  std::uint64_t seed = cfg::kDefaultSweepSeed;
  bool quiet = false;
  cfg::OrchestratorOptions opts;
  opts.progress = &std::cerr;

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
      seed = cli::unsignedArg<std::uint64_t>("lktm_sweep", "--seed", next());
    } else if (a == "--out") {
      outPath = next();
    } else if (a == "--summary") {
      summaryPath = next();
    } else if (a == "--host-threads") {
      opts.hostThreads = cli::unsignedArg<unsigned>("lktm_sweep", "--host-threads", next());
    } else if (a == "--max-jobs") {
      opts.maxJobs = cli::unsignedArg<std::size_t>("lktm_sweep", "--max-jobs", next());
    } else if (a == "--cycle-budget") {
      opts.jobCycleBudget = cli::unsignedArg<Cycle>("lktm_sweep", "--cycle-budget", next());
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
    if (manifestPath.empty()) {
      std::fprintf(stderr, "error: --manifest is required\n");
      return 2;
    }

    if (cmd == "plan") {
      if (artifactDir.empty()) artifactDir = manifestPath + ".d";
      cfg::SweepManifest m;
      try {
        m = cfg::presetManifest(preset, artifactDir, seed);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      if (!m.save(manifestPath)) return 1;
      if (!quiet) {
        std::printf("%s: %zu jobs (%s), artifacts in %s\n", manifestPath.c_str(),
                    m.jobs.size(), preset.c_str(), artifactDir.c_str());
      }
      return 0;
    }

    cfg::SweepManifest m = cfg::SweepManifest::load(manifestPath);

    if (cmd == "run") {
      const cfg::OrchestratorReport rep = cfg::runManifest(m, manifestPath, opts);
      if (!quiet) {
        std::printf("ran %zu, skipped %zu; ok %zu, failed %zu, total %zu\n", rep.ran,
                    rep.skipped, rep.ok, rep.failed, m.jobs.size());
        if (!m.complete()) {
          std::printf("manifest incomplete (%zu pending) — re-run to resume\n",
                      m.countIn(cfg::JobState::Pending));
        }
      }
      return m.complete() && m.allOk() ? 0 : 1;
    }
    if (cmd == "status") {
      for (const auto s : {cfg::JobState::Pending, cfg::JobState::Running,
                           cfg::JobState::Ok, cfg::JobState::Failed,
                           cfg::JobState::Hang, cfg::JobState::Timeout}) {
        std::printf("%-8s %zu\n", toString(s), m.countIn(s));
      }
      std::size_t done = 0;
      double wallSum = 0.0;
      std::size_t wallN = 0;
      for (const auto& j : m.jobs) {
        if (j.state == cfg::JobState::Pending || j.state == cfg::JobState::Running) {
          continue;
        }
        ++done;
        if (j.state != cfg::JobState::Ok) {
          std::printf("  %s: %s (%u attempts) %s\n", j.spec.id().c_str(),
                      toString(j.state), j.attempts, j.diagnostic.c_str());
        }
        if (j.wallSeconds > 0.0) {
          wallSum += j.wallSeconds;
          ++wallN;
        }
      }
      // `run` checkpoints after every job, so on a live sweep this is its
      // progress. The ETA needs a measured rate: zero completed jobs or
      // all-zero wall times have nothing to extrapolate from.
      const std::size_t total = m.jobs.size();
      char eta[64];
      if (done < total && wallN > 0 && wallSum > 0.0) {
        std::snprintf(eta, sizeof(eta), ", eta ~%.0fs of work left",
                      wallSum / static_cast<double>(wallN) *
                          static_cast<double>(total - done));
      } else {
        eta[0] = '\0';
      }
      std::printf("[%zu/%zu] done%s\n", done, total, eta);
      return 0;
    }
    if (cmd == "merge") {
      if (outPath.empty()) {
        std::fprintf(stderr, "error: merge needs --out\n");
        return 2;
      }
      if (!m.complete()) {
        std::fprintf(stderr, "error: manifest has unfinished jobs (%zu pending, %zu running)\n",
                     m.countIn(cfg::JobState::Pending),
                     m.countIn(cfg::JobState::Running));
        return 1;
      }
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
