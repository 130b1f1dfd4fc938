// Manifest-driven experiment orchestrator: the one way a sweep runs. A sweep
// is described by a manifest ("lktm.manifest.v3", written through the same
// JSON layer as the stats artifacts) recording every job's spec, seed,
// state, attempt count and artifact path. runManifest() executes the pending
// jobs in process on a pool of host threads, checkpoints the manifest after
// every claim and completion, and writes one lktm.stats.v1 artifact per job —
// so a killed sweep resumes exactly where it stopped, skipping completed
// jobs. With an empty manifest path and artifact directory it is a plain
// in-memory grid run, which is how paper_figures runs the "figures" preset.
//
// Determinism contract (regression-tested): an interrupted-and-resumed sweep
// produces a merged artifact bit-identical to an uninterrupted one, at any
// hostThreads. Per-job results depend only on the job spec; host-timing
// fields (wall_seconds) are zeroed in the merged document because they are
// the one thing a host cannot reproduce.
//
// Failure taxonomy: a job ends Ok/Failed/Hang/Timeout (RunStatus) and runs
// once per invocation. Every failure — cycle-budget timeout, hang, violation
// or crash — is a property of the job spec that a rerun would reproduce, so
// it stays recorded until an explicit rerunFailed. The only budget is
// simulated cycles. Every result, failed or not, carries the job's
// jobRunSeed().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "stats/json.hpp"

namespace lktm::cfg {

/// Manifest schema; a document naming any other (v1 and v2 included) is
/// malformed.
inline constexpr const char* kManifestSchema = "lktm.manifest.v3";

/// Manifest-side job lifecycle. Pending/Running are orchestration states; the
/// terminal states mirror RunStatus (with Failed also covering invariant
/// violations). A Running entry found on load is a stale marker from a killed
/// sweep and is normalized back to Pending.
enum class JobState : std::uint8_t { Pending, Running, Ok, Failed, Hang, Timeout };

const char* toString(JobState s);
/// Inverse of toString; returns false on an unknown name.
bool jobStateFromString(const std::string& name, JobState& out);
/// Terminal state for a finished run.
JobState jobStateOf(const RunResult& r);

/// Identity of one simulation cell. `machine` is stored by preset name
/// (machineByName) so the manifest stays a plain-text document.
struct JobSpec {
  std::string system;
  std::string workload;
  std::string machine = "typical";
  unsigned threads = 0;
  /// Workload-generation seed: every simulated draw comes from the
  /// generator's per-thread streams seeded from it. jobRunSeed() derives the
  /// run's recorded seed from it and the other coordinates.
  std::uint64_t seed = kDefaultSweepSeed;

  /// Stable human-readable identity, unique within a manifest:
  /// "system/workload/machine@threads#seed".
  std::string id() const;
  bool operator==(const JobSpec&) const = default;
};

/// Filesystem-safe form of the job's id: its per-job artifact is
/// "<stem>.json" in the manifest's artifact directory.
std::string jobFileStem(const JobSpec& spec);

struct JobRecord {
  JobSpec spec;
  JobState state = JobState::Pending;
  unsigned attempts = 0;        ///< runs consumed (across resumes)
  std::string diagnostic;       ///< failure detail, "" while pending/ok
  std::string artifact;         ///< per-job lktm.stats.v1 path ("" until Ok)
  double wallSeconds = 0.0;     ///< host seconds of the last attempt
  std::uint64_t cycles = 0;     ///< simulated cycles of the last attempt
};

struct SweepManifest {
  /// Directory per-job artifacts are written into (created on demand).
  std::string artifactDir;
  std::vector<JobRecord> jobs;

  JobRecord* find(const std::string& id);
  std::size_t countIn(JobState s) const;
  /// True when every job reached a terminal state.
  bool complete() const;
  /// True when every job is Ok.
  bool allOk() const;

  /// Read a parsed manifest document: this reader is the lktm.manifest.v3
  /// schema. Throws std::runtime_error, naming the field, on malformed input:
  /// a string "artifact_dir"; per job, every field of its type (integers
  /// plain and within range), a known state, a stored "id" equal to the id
  /// its fields produce, and an artifact path on every "ok" job; unique ids.
  static SweepManifest fromJson(const stats::json::Value& doc);
  /// Parse and read the manifest file at `path`; errors name the path.
  static SweepManifest load(const std::string& path);
  std::string toJson() const;
  /// Atomic save (writeFileAtomic), so a kill mid-write can never truncate
  /// the manifest a resume depends on.
  bool save(const std::string& path) const;
};

struct OrchestratorOptions {
  unsigned hostThreads = 0;   ///< 0 = hardware concurrency
  /// Per-job simulated-cycle ceiling override (0 = the machine's maxCycles).
  /// Expiry => Timeout.
  Cycle jobCycleBudget = 0;
  /// Stop claiming new jobs after this many have been started in this
  /// invocation (0 = unlimited). The rest stay Pending in the manifest —
  /// this is how the kill-and-resume tests interrupt a sweep exactly.
  std::size_t maxJobs = 0;
  /// Also re-run jobs already recorded as Failed/Hang/Timeout.
  bool rerunFailed = false;
  /// Live progress lines ("[done/total] id: state ... eta Ns"), one per
  /// completed job. Null = silent.
  std::ostream* progress = nullptr;
};

/// How a job executes: default is runSpec() below; tests substitute scripted
/// runners (crashing, hanging) to exercise the orchestrator itself.
using JobRunner =
    std::function<RunResult(const JobSpec&, const OrchestratorOptions&, sim::SimContext&)>;

/// The default runner: machineByName/systemByName/makeJobWorkload, RNG seed
/// from jobRunSeed(), cycle budget from opts.
RunResult runSpec(const JobSpec& spec, const OrchestratorOptions& opts,
                  sim::SimContext& ctx);

/// The one lookup of a job workload by name, over wl::workloadTable();
/// throws std::invalid_argument naming the valid names on an unknown one.
std::unique_ptr<wl::Workload> makeJobWorkload(const std::string& name,
                                              std::uint64_t seed);

struct OrchestratorReport {
  std::size_t ran = 0;      ///< jobs executed in this invocation
  std::size_t skipped = 0;  ///< jobs already terminal (resume fast-path)
  std::size_t ok = 0;       ///< jobs Ok after this invocation (whole manifest)
  std::size_t failed = 0;   ///< jobs Failed/Hang/Timeout (whole manifest)
};

/// Execute a manifest: normalize stale state (Running -> Pending, Ok with a
/// missing artifact file -> Pending), then run every pending job on a pool of
/// opts.hostThreads threads (0 = hardware concurrency), each owning one
/// reused SimContext. Each job runs once; each Ok job writes its per-job
/// artifact; the manifest is checkpointed on every claim and completion.
/// When `manifestPath` is empty the manifest is kept in memory only (no
/// checkpoints). When `results` is non-null it receives one RunResult per
/// job in manifest order — loaded from the artifact for skipped-Ok jobs, so
/// a resumed sweep still hands the figure code the complete result set. A
/// checkpoint that cannot be written stops further claims; once the running
/// jobs drain, runManifest throws std::runtime_error naming the manifest
/// path.
OrchestratorReport runManifest(SweepManifest& manifest, const std::string& manifestPath,
                               const OrchestratorOptions& opts = {},
                               const JobRunner& runner = {},
                               std::vector<RunResult>* results = nullptr);

/// Merge the per-job artifacts of every Ok job (manifest order) into one
/// multi-run lktm.stats.v1 document. Each artifact is read with
/// loadStatsArtifact and written back by the one run writer with
/// "wall_seconds" zeroed, one run at a time, so each merged run entry is its
/// per-job artifact's run byte for byte apart from that field, and the
/// merged bytes depend only on the job specs — not on interruptions, resumes
/// or hostThreads. Returns false, with a message on stderr naming the job
/// and the reader's field, and writes nothing when an artifact does not read
/// or no job is Ok.
bool writeMergedArtifact(const SweepManifest& manifest, const std::string& outPath);

/// Cross-product helper: one Pending record per (workload x system x threads)
/// cell on `machine`, workload-major, then system, then thread count.
SweepManifest makeManifest(const std::string& artifactDir,
                           const std::string& machine,
                           const std::vector<std::string>& systems,
                           const std::vector<std::string>& workloads,
                           const std::vector<unsigned>& threads,
                           std::uint64_t seed = kDefaultSweepSeed);

/// Thread counts of the paper's scaling figures (Figs 7, 8, 12 and 13).
inline const std::vector<unsigned> kPaperThreadCounts{2, 4, 8, 16, 32};

/// The named job list behind `lktm_sweep plan --preset NAME` and
/// paper_figures: smoke | figures | ablations | table2-backends |
/// table3-dbtraffic | bigcores-128 | bigcores-256. "figures" is exactly the
/// grid paper_figures renders (Figs 1 and 7-13, Table III and the
/// "ablations" cells it lacks). Throws std::invalid_argument on an unknown
/// name.
SweepManifest presetManifest(const std::string& name, const std::string& artifactDir,
                             std::uint64_t seed = kDefaultSweepSeed);

namespace detail {

/// One attempt of `run` with every escape hatch closed: std::exception and
/// non-standard throws both come back as a Failed result keyed by the spec.
RunResult attemptJobOnce(const JobSpec& spec, const OrchestratorOptions& opts,
                         const JobRunner& run, sim::SimContext& ctx);

}  // namespace detail

}  // namespace lktm::cfg
