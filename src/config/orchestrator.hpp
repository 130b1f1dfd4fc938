// Manifest-driven experiment orchestrator: the one way a sweep runs. A sweep
// is described by a manifest ("lktm.manifest.v2", written through the same
// JSON layer as the stats artifacts) recording every job's spec, seed,
// state, attempt count and artifact path. runManifest() executes the pending
// jobs in process, checkpoints the manifest after every completion, and
// writes one lktm.stats.v1 artifact per job — so a killed sweep resumes
// exactly where it stopped, skipping completed jobs. With an empty manifest
// path and artifact directory it is a plain in-memory grid run, which is
// what sweepSystems() and the figure benches use. The distributed worker
// (config/distrib.hpp) shares the same per-job executor and differs only in
// where it claims jobs from.
//
// Determinism contract (regression-tested): an interrupted-and-resumed sweep
// produces a merged artifact bit-identical to an uninterrupted one, at any
// hostThreads. Per-job results depend only on the job spec; host-timing
// fields (wall_seconds) are zeroed in the merged document because they are
// the one thing a host cannot reproduce.
//
// Failure taxonomy: a job ends Ok/Failed/Hang/Timeout (RunStatus). Wall-clock
// timeouts and TransientJobError throws are *transient* — the orchestrator
// retries them in place with exponential backoff up to maxAttempts. Cycle-
// budget timeouts, hangs, violations and crashes are deterministic: retrying
// would reproduce them, so they fail fast and stay recorded. Every result,
// failed or not, carries the job's jobRunSeed().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/sweep.hpp"

namespace lktm::cfg {

/// Manifest schema; the top-level "shards" count backs the distributed
/// worker-pull protocol (config/distrib.hpp).
inline constexpr const char* kManifestSchema = "lktm.manifest.v2";

/// Throw this from a job runner to mark the failure as transient (worth a
/// bounded retry): host resource hiccups, injected flakiness in tests, …
class TransientJobError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
  /// Workload-generation seed; the run's RNG-stream seed is derived from it
  /// and the other coordinates via jobRunSeed().
  std::uint64_t seed = kDefaultSweepSeed;

  /// Stable human-readable identity, unique within a manifest:
  /// "system/workload/machine@threads#seed".
  std::string id() const;
  bool operator==(const JobSpec&) const = default;
};

/// Filesystem-safe name for everything keyed by one job: its per-job artifact
/// is "<stem>.json" and its claim/done spool entries are the bare stem. The
/// sanitized id is shared so the artifact a worker wrote and the claim it
/// held always agree on the job they describe.
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
  /// Shard count for distributed fan-out (>= 1). Purely advisory for the
  /// single-process runner; `lktm_sweep work` uses it with jobShard() so
  /// every worker computes the same job -> shard map with no coordination.
  std::uint64_t shards = 1;
  std::vector<JobRecord> jobs;

  JobRecord* find(const std::string& id);
  std::size_t countIn(JobState s) const;
  /// True when every job reached a terminal state.
  bool complete() const;
  /// True when every job is Ok.
  bool allOk() const;

  /// Parse a manifest document. Throws std::runtime_error on malformed input
  /// or duplicate job ids.
  static SweepManifest fromJson(const std::string& text);
  static SweepManifest load(const std::string& path);
  std::string toJson() const;
  /// Atomic save (writeFileAtomic), so a kill mid-write can never truncate
  /// the manifest a resume depends on.
  bool save(const std::string& path) const;
};

struct OrchestratorOptions {
  unsigned hostThreads = 0;   ///< 0 = hardware concurrency
  /// Total attempts a transient job may consume (>=1). Deterministic
  /// failures never retry regardless.
  unsigned maxAttempts = 2;
  /// Host-sleep before retry k is backoff * 2^(k-1) seconds (0 = none).
  double retryBackoffSeconds = 0.0;
  /// Per-job host wall-clock budget (0 = none). Expiry => transient Timeout.
  double jobWallBudgetSeconds = 0.0;
  /// Per-job simulated-cycle ceiling override (0 = the machine's maxCycles).
  /// Expiry => deterministic Timeout.
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
/// runners (crashing, hanging, flaky) to exercise the orchestrator itself.
using JobRunner =
    std::function<RunResult(const JobSpec&, const OrchestratorOptions&, sim::SimContext&)>;

/// The default runner: machineByName/systemByName/makeJobWorkload, RNG seed
/// from jobRunSeed(), budgets from opts.
RunResult runSpec(const JobSpec& spec, const OrchestratorOptions& opts,
                  sim::SimContext& ctx);

/// runSpec on the caller's own MachineParams / SystemSpec objects: the spec's
/// machine and system names are identity only, so a grid that tweaks params
/// is still simulated faithfully. A spec naming a system outside `systems`
/// fails the job.
JobRunner gridRunner(const MachineParams& machine, const std::vector<SystemSpec>& systems);

/// Workload factory shared with lktm_sim: STAMP analogs by name, plus the
/// micro workloads "counter" / "bank" / "linkedlist".
std::unique_ptr<wl::Workload> makeJobWorkload(const std::string& name,
                                              std::uint64_t seed);

/// Transient <=> worth retrying: wall-clock Timeout or TransientJobError.
bool isTransientFailure(const RunResult& r);

struct OrchestratorReport {
  std::size_t ran = 0;      ///< jobs executed in this invocation
  std::size_t skipped = 0;  ///< jobs already terminal (resume fast-path)
  std::size_t retried = 0;  ///< extra attempts consumed by transient jobs
  std::size_t ok = 0;       ///< jobs Ok after this invocation (whole manifest)
  std::size_t failed = 0;   ///< jobs Failed/Hang/Timeout (whole manifest)
};

/// Execute a manifest: normalize stale state (Running -> Pending, Ok with a
/// missing artifact file -> Pending), run every pending job on the worker
/// pool, retry transient failures with backoff, write one per-job artifact
/// and checkpoint the manifest after each completion. When `manifestPath` is
/// empty the manifest is kept in memory only (no checkpoints). When `results`
/// is non-null it receives one RunResult per job in manifest order — loaded
/// from the artifact for skipped-Ok jobs, so a resumed sweep still hands the
/// figure code the complete result set.
OrchestratorReport runManifest(SweepManifest& manifest, const std::string& manifestPath,
                               const OrchestratorOptions& opts = {},
                               const JobRunner& runner = {},
                               std::vector<RunResult>* results = nullptr);

/// Merge the per-job artifacts of every Ok job (manifest order) into one
/// multi-run lktm.stats.v1 document. Each run entry is re-emitted through the
/// deterministic JSON re-writer with "wall_seconds" zeroed, so the merged
/// bytes depend only on the job specs — not on interruptions, resumes or
/// hostThreads. Returns false (with a message on stderr) when an artifact is
/// missing or unreadable.
bool writeMergedArtifact(const SweepManifest& manifest, const std::string& outPath);

/// Cross-product helper: one Pending record per (workload x system x threads)
/// cell on `machine`, in the same order sweepSystems() runs them.
SweepManifest makeManifest(const std::string& artifactDir,
                           const std::string& machine,
                           const std::vector<std::string>& systems,
                           const std::vector<std::string>& workloads,
                           const std::vector<unsigned>& threads,
                           std::uint64_t seed = kDefaultSweepSeed);

namespace detail {

/// One attempt of `run` with every escape hatch closed: TransientJobError,
/// std::exception and non-standard throws all come back as a Failed result
/// keyed by the spec (transient throws keep their retryable classification
/// via the diagnostic prefix isTransientFailure() keys on).
RunResult attemptJobOnce(const JobSpec& spec, const OrchestratorOptions& opts,
                         const JobRunner& run, sim::SimContext& ctx);

/// claim() results besides a manifest index.
inline constexpr std::ptrdiff_t kNoMoreJobs = -1;  ///< this pool thread stops
inline constexpr std::ptrdiff_t kPollAgain = -2;   ///< nothing claimable yet

/// Where the executor's jobs come from and where their completions go — the
/// only part runManifest (in-memory cursor + manifest checkpoints) and
/// runWorker (claim spool + heartbeats) do not share. Every hook runs under
/// the executor's lock.
struct ClaimSource {
  std::size_t capacity = 0;  ///< upper bound on claims (sizes the pool)
  std::string writer;        ///< writer id of the atomic artifact writes
  double pollSeconds = 0.0;  ///< host sleep after a kPollAgain claim
  /// Next manifest index to run, kNoMoreJobs or kPollAgain.
  std::function<std::ptrdiff_t()> claim;
  /// Job i's attempt count was just bumped (may be null).
  std::function<void(std::size_t)> attemptStarted;
  /// Job i's JobRecord holds its final state.
  std::function<void(std::size_t)> finished;
  /// Jobs finished so far, for the "[done/total]" progress line.
  std::function<std::size_t()> doneCount;
};

/// The one job executor: a worker pool that claims jobs from `source` until
/// opts.maxJobs, runs each with the retry contract (transient failures back
/// off exponentially up to opts.maxAttempts), writes the Ok artifact, updates
/// the JobRecord and prints the progress/ETA line. `results`, when non-null,
/// must already hold one slot per manifest job. Fills report.ran/retried.
OrchestratorReport executeJobs(SweepManifest& manifest, const OrchestratorOptions& opts,
                               const JobRunner& runner, const ClaimSource& source,
                               std::vector<RunResult>* results);

}  // namespace detail

}  // namespace lktm::cfg
