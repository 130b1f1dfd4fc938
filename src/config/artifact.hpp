// Versioned machine-readable run artifacts (`--stats-json`). One schema —
// "lktm.stats.v1" — shared by lktm_sim, the sweep tools and the
// validate_stats_json checker:
//
//   {
//     "schema": "lktm.stats.v1",
//     "runs": [ {
//       "system": ..., "workload": ..., "machine": ..., "threads": N,
//       "seed": N, "cycles": N, "ok": bool,
//       "status": "ok" | "failed" | "hang" | "timeout",
//       "diagnostic": "...",           // failure detail, "" when ok
//       "wall_seconds": f,
//       "violations": [ ... ],
//       "derived": { "commit_rate": f, "total_commits": N, ... },
//       "stats": [ {"path": "core.0.commits.htm", "kind": "counter",
//                   "value": N},
//                  {"path": "noc.hops", "kind": "histogram", "count": N,
//                   "sum": N, "buckets": [[b, n], ...]},
//                  {"path": "dir.waitq.depth", "kind": "distribution",
//                   "count": N, "sum": N, "min": N, "max": N},
//                  {"path": "noc.avg_flit_hops_per_msg", "kind": "formula",
//                   "value": f} ]
//     } ]
//   }
//
// Stats are emitted in path-sorted order and all numbers are
// locale-independent, so the same run always produces byte-identical output.
#pragma once

#include <iosfwd>
#include <vector>

#include "config/runner.hpp"
#include "stats/json.hpp"
#include "stats/registry.hpp"

namespace lktm::cfg {

inline constexpr const char* kStatsSchema = "lktm.stats.v1";
/// Compact per-cell companion of a merged lktm.stats.v1 document: identity +
/// cycles + derived metrics per run, no full stat snapshot. What the repo
/// commits for big grids (plus the command to regenerate the full artifact)
/// instead of megabytes of raw counters.
inline constexpr const char* kSummarySchema = "lktm.summary.v1";

/// Emit one snapshot as the schema's "stats" array (used by the artifact
/// writer and by trace/counterexample embeddings).
void writeSnapshotJson(stats::json::Writer& w, const stats::StatSnapshot& snap);

/// Write the full artifact document for one or more runs.
void writeStatsJson(std::ostream& os, const std::vector<const RunResult*>& runs);
void writeStatsJson(std::ostream& os, const RunResult& run);

/// The one file writer behind every artifact, manifest checkpoint and claim
/// spool record: write `content` to a hidden tmp file next to `path` whose
/// name is unique per call (writer id + pid + counter), then rename it over
/// `path`. Readers never see a torn file, and concurrent writers (threads,
/// processes, hosts on a shared mount) resolve to the last rename. Returns
/// false (with a message on stderr) on failure, leaving neither `path` nor
/// the tmp file behind.
bool writeFileAtomic(const std::string& path, const std::string& content,
                     const std::string& writer = "");

/// The whole content of `path`. Throws std::runtime_error when the file
/// cannot be read.
std::string readFile(const std::string& path);

/// Write the artifact to `path` atomically (writeFileAtomic); returns false
/// (with a message on stderr) when it cannot be written.
bool writeStatsJsonFile(const std::string& path, const RunResult& run);

/// Reduce a parsed lktm.stats.v1 document to its lktm.summary.v1 companion:
/// per run, the identity/scale fields and the "derived" block, re-emitted
/// through the raw-literal writer so the summary bytes are as deterministic
/// as the merge they came from. Throws std::runtime_error when `statsDoc` is
/// not a stats artifact.
void writeSummaryArtifact(const stats::json::Value& statsDoc, std::ostream& os);

/// Rebuild a RunResult from one parsed "runs" entry — the inverse of the
/// writer as far as a dump allows (formula stats come back as plain values;
/// that is also what snapshot merging already assumes). Throws
/// std::runtime_error on a malformed entry.
RunResult runResultFromJson(const stats::json::Value& run);

/// Load a single-run artifact file written by writeStatsJsonFile. Throws
/// std::runtime_error when the file is unreadable or not a one-run
/// lktm.stats.v1 document.
RunResult loadStatsArtifact(const std::string& path);

}  // namespace lktm::cfg
