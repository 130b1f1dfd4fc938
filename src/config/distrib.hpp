// Distributed sweep fan-out: many `lktm_sweep work` processes — on one host
// or on several sharing a directory (NFS mount or rsync'd spool) — execute
// one manifest cooperatively, with no daemon and no coordinator.
//
// The protocol is a filesystem claim spool next to the manifest. Every job
// has one file, named by jobFileStem(), that lives in exactly one of three
// subdirectories; every transition is a POSIX rename of that file, which is
// atomic even on shared filesystems:
//
//     todo/<stem>      --take-->      claimed/<stem>     (exactly one winner)
//     claimed/<stem>   --reclaim-->   todo/<stem>        (exactly one winner)
//     claimed/<stem>   --finish-->    done/<stem> written, claimed/ removed
//
// Claim contents travel with the rename: a token carries the cumulative
// attempt count, so a job reclaimed from a dead worker resumes its retry
// budget instead of resetting it.
//
// Liveness is a heartbeat file per worker (hb/<worker>, rewritten atomically
// on a cadence by a dedicated thread). Staleness is judged WITHOUT comparing
// clocks across hosts: a worker watches a foreign claim, remembers the
// owner's heartbeat fingerprint, and reclaims only when the fingerprint has
// not changed across `leaseSeconds` of its OWN steady clock. A SIGKILLed
// worker's jobs therefore flow back into todo/ and the survivors finish
// them — mapping dead workers onto the ordinary pending state of the PR-5
// taxonomy.
//
// Crash windows resolve safely because every job is deterministic: the worst
// a spurious reclaim can cause is a double execution, and both executions
// write byte-identical artifacts (atomically, via tmp + rename), so the
// merged document stays bit-identical to a single-worker run no matter how
// many workers ran, where, or how often they died. done/ beats claimed/
// whenever both exist (a worker died between finishing and unclaiming).
//
// Shard assignment is pure computation, not state: jobShard() keys on the
// same manifest identity that feeds jobRunSeed, so every worker derives the
// same job -> shard map with no messages. Workers *prefer* their own shard
// (disjoint claim traffic in the common case) and steal from other shards
// once theirs is drained, so a lost worker never strands its slice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/orchestrator.hpp"

namespace lktm::cfg {

/// Deterministic job -> shard assignment for a manifest with `numShards`
/// shards. Keyed by the same identity that feeds jobRunSeed() — plus the
/// machine name, which the RNG seed deliberately omits but which must
/// separate cells that differ only by machine (the fig13 grids). Pure
/// function of the spec: identical on every host.
std::size_t jobShard(const JobSpec& spec, std::uint64_t numShards);

/// One worker's view of a claim file (claimed/<stem>).
struct ClaimRecord {
  std::string file;     ///< spool file name (the job's stem)
  std::string id;       ///< JobSpec::id(), carried in the content
  std::string worker;   ///< current owner ("" in the brief post-take window)
  unsigned attempts = 0;  ///< attempts consumed by all owners so far
};

/// Terminal record (done/<stem>): the manifest-record fields a worker learns
/// when it finishes (or inherits) a job.
struct DoneRecord {
  std::string file;
  std::string id;
  JobState state = JobState::Failed;
  unsigned attempts = 0;
  std::string diagnostic;
  std::string artifact;
  double wallSeconds = 0.0;
  std::uint64_t cycles = 0;
  std::string worker;  ///< who finished it
};

/// Parsed heartbeat file (hb/<worker>).
struct HeartbeatRecord {
  std::string worker;
  std::uint64_t seq = 0;       ///< monotonically increasing per rewrite
  double unixSeconds = 0.0;    ///< writer's wall clock (display only — never
                               ///< used for staleness decisions)
};

/// The claim spool. All mutating operations are single filesystem renames
/// (or exclusive creates), so any number of ClaimStores — across threads,
/// processes and hosts — can operate on the same directory concurrently.
class ClaimStore {
 public:
  ClaimStore(std::string root, std::string workerId);

  /// Create the spool directories. Throws std::runtime_error on failure.
  void init() const;

  /// Ensure every manifest job has a spool entry: terminal jobs (Ok with a
  /// live artifact, or failed/hang/timeout) get a done/ record, everything
  /// else a todo/ token. Entries that already exist anywhere are left alone,
  /// so seeding is idempotent and races between workers are harmless.
  /// Returns the number of entries this call created.
  std::size_t seed(const SweepManifest& manifest) const;

  /// Claim todo/<file> by renaming it into claimed/. On the win, `out` holds
  /// the inherited attempt count and the claim file has been republished
  /// with this worker as owner. Returns false when someone else won (or the
  /// token vanished).
  bool take(const std::string& file, ClaimRecord& out) const;

  /// Republish claimed/<file> content (owner + attempts). Only the owner
  /// should call this.
  void publishClaim(const ClaimRecord& c) const;

  /// Record a terminal state: write done/<file> atomically, then drop the
  /// claim. Safe against concurrent duplicate executions — last writer wins
  /// with equivalent content.
  bool markDone(const DoneRecord& d) const;

  /// Return claimed/<file> to todo/ (dead-owner reclamation). When a done/
  /// record already exists the claim is just dropped instead — the job
  /// finished, its owner merely died before unclaiming. Returns true only
  /// when the job actually went back to todo/ by this call.
  bool reclaim(const std::string& file) const;

  /// Rewrite this worker's heartbeat file.
  void writeHeartbeat(std::uint64_t seq) const;

  // ---- scans (each a directory listing; sorted by file name) ----
  std::vector<std::string> listTodo() const;
  std::vector<ClaimRecord> listClaimed() const;
  std::vector<DoneRecord> listDone() const;
  std::vector<HeartbeatRecord> listHeartbeats() const;
  bool todoExists(const std::string& file) const;
  bool doneExists(const std::string& file) const;
  std::size_t doneCount() const;
  /// Parse one done/<file> record; returns false when absent/malformed.
  bool readDone(const std::string& file, DoneRecord& out) const;

  /// Drop a stray todo/ token (used when a done/ record already exists after
  /// a spurious reclaim; the job must not run again).
  void discardTodo(const std::string& file) const;

 private:
  std::string root_;
  std::string workerId_;
};

/// Per-worker knobs for runWorker / `lktm_sweep work`.
struct WorkerOptions {
  static constexpr std::size_t kAutoShard = static_cast<std::size_t>(-1);

  std::string workerId;   ///< required; also names the heartbeat file
  std::string claimDir;   ///< spool root (shared across all workers)
  double heartbeatSeconds = 2.0;  ///< heartbeat rewrite cadence
  /// Reclaim a foreign claim after its owner's heartbeat fingerprint stayed
  /// frozen this long on OUR steady clock (>= a few heartbeat periods).
  double leaseSeconds = 30.0;
  double pollSeconds = 0.2;  ///< idle wait between claim scans
  /// Preferred shard (< manifest.shards). kAutoShard derives one from the
  /// worker id, so N distinctly-named workers spread over the shards.
  std::size_t shard = kAutoShard;
};

/// Execute `manifest` as one worker of a distributed sweep: seed the spool,
/// pull claims (own shard first, then steal) and hand them to the same job
/// executor runManifest uses (retries, atomic per-job artifacts, progress),
/// mark jobs done, heartbeat throughout, and reclaim jobs from dead workers. Returns
/// when every job has a done/ record (or opts.maxJobs claims were taken).
/// The manifest is an in-memory view — distributed state lives in the spool;
/// on return the manifest has been folded up to date (foldClaimState).
OrchestratorReport runWorker(SweepManifest& manifest, const WorkerOptions& wopts,
                             const OrchestratorOptions& opts = {},
                             const JobRunner& runner = {});

/// Overlay spool state onto manifest records: done/ records set terminal
/// state/attempts/diagnostic/artifact, claimed/ shows as Running, todo/ as
/// Pending (done beats claimed beats todo). Jobs with no spool entry keep
/// their manifest state. Returns the number of jobs updated from done/.
/// No-op (returns 0) when `claimDir` does not exist.
std::size_t foldClaimState(SweepManifest& manifest, const std::string& claimDir);

}  // namespace lktm::cfg
