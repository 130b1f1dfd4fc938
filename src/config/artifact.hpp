// Versioned machine-readable run artifacts (`--stats-json`). One schema —
// "lktm.stats.v1" — shared by lktm_sim, the sweep tools and the
// validate_stats_json checker:
//
//   {
//     "schema": "lktm.stats.v1",
//     "runs": [ {
//       "system": ..., "workload": ..., "machine": ..., "backend": ...,
//       "threads": N, "cores": N, "banks": N, "seed": N, "cycles": N,
//       "ok": bool,
//       "status": "ok" | "failed" | "hang" | "timeout",
//       "diagnostic": "...",           // failure detail, "" when ok
//       "wall_seconds": f,
//       "violations": [ ... ],
//       "derived": { "commit_rate": f, "total_commits": N, ... },
//       "stats": [ {"path": "core.0.commits.htm", "kind": "counter",
//                   "value": N},
//                  {"path": "noc.hops", "kind": "histogram", "count": N,
//                   "sum": N, "buckets": [[b, n], ...]} ]
//     } ]
//   }
//
// A stat is a counter or a histogram; the reader refuses any other kind.
// Stats are emitted in path-sorted order and all numbers are
// locale-independent, so the same run always produces byte-identical output.
//
// The readers below are the schema: what they accept is a valid document,
// and validate_stats_json is only a front end that calls them. Each schema
// also has one writer (writeStatsJson, writeSummaryArtifact), and the tools
// that re-write a document (lktm_sweep merge and its --summary) read it with
// the reader first, so they cannot emit what the reader rejects. A field the
// schema gains is taught to its one reader and its one writer, nowhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
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

/// A run's "derived" block, shared by both schemas that carry it: both
/// writers emit it with writeJson, the lktm.stats.v1 reader requires it to
/// equal what the run's own stats derive, and the lktm.summary.v1 reader
/// parses it.
struct DerivedMetrics {
  /// (htm+stl+stm) / (htm+stl+stm+aborts); JSON null when the run made no
  /// speculative attempts (idle cores must not read as a perfect 1.0).
  std::optional<double> commitRate;
  std::uint64_t totalCommits = 0;
  std::uint64_t htmCommits = 0;
  std::uint64_t lockCommits = 0;
  std::uint64_t stlCommits = 0;
  std::uint64_t stmCommits = 0;
  std::uint64_t aborts = 0;
  /// "commit_latency": the merged commit-latency histogram's sample count
  /// and HDR percentiles, in cycles.
  std::uint64_t latencyCount = 0;
  std::uint64_t p50 = 0, p90 = 0, p99 = 0, p999 = 0;

  static DerivedMetrics of(const RunResult& r);
  /// Parse a "derived" object. Besides field types it checks what holds for
  /// any run: total_commits is the sum of the four kinds, the percentiles
  /// ascend, and an empty latency histogram has all-zero percentiles. Throws
  /// std::runtime_error naming the field.
  static DerivedMetrics fromJson(const stats::json::Value& v);
  void writeJson(stats::json::Writer& w) const;

  bool operator==(const DerivedMetrics&) const = default;
};

/// One lktm.summary.v1 run: its lktm.stats.v1 run's derived block and
/// identity and scale fields (system … diagnostic), without the backend,
/// violations or stat snapshot — so `run`'s stat accessors read zero.
struct SummaryRun {
  RunResult run;
  DerivedMetrics derived;
};

/// Emit one snapshot as the schema's "stats" array (used by the artifact
/// writer and by trace/counterexample embeddings).
void writeSnapshotJson(stats::json::Writer& w, const stats::StatSnapshot& snap);

/// The one lktm.stats.v1 writer: a document of `count` runs, run i being
/// what `runAt(i)` returns. Runs are asked for once each, in order, and each
/// is written before the next is asked for, so a caller that loads runs on
/// demand holds one at a time. An exception from `runAt` propagates and
/// leaves `os` half written.
void writeStatsJson(std::ostream& os, std::size_t count,
                    const std::function<const RunResult&(std::size_t)>& runAt);
/// A one-run document: every per-job artifact and `lktm-sim --stats-json`.
void writeStatsJson(std::ostream& os, const RunResult& run);

/// The one file writer behind every artifact and manifest checkpoint: write
/// `content` to a hidden tmp file next to `path` whose name is unique per
/// call (pid + counter), then rename it over `path`. Readers never see a
/// torn file, and concurrent writers resolve to the last rename. Returns
/// false (with a message on stderr) on failure, leaving neither `path` nor
/// the tmp file behind.
bool writeFileAtomic(const std::string& path, const std::string& content);

/// The whole content of `path`. Throws std::runtime_error when the file
/// cannot be read.
std::string readFile(const std::string& path);

/// Write the artifact to `path` atomically (writeFileAtomic); returns false
/// (with a message on stderr) when it cannot be written.
bool writeStatsJsonFile(const std::string& path, const RunResult& run);

/// The one lktm.summary.v1 writer: reduce a parsed lktm.stats.v1 document to
/// its summary companion. Each run is read with the summary-run reader
/// (identity/scale fields and DerivedMetrics::fromJson) and written back as
/// those fields and DerivedMetrics::writeJson, so the output is a document
/// summaryRunsFromJson accepts. Throws std::runtime_error, naming the run and
/// field, before writing anything when `statsDoc` is not a stats document or
/// one of its runs does not read.
void writeSummaryArtifact(const stats::json::Value& statsDoc, std::ostream& os);

/// Rebuild a RunResult from one parsed "runs" entry: the inverse of the
/// writer. Throws std::runtime_error naming the offending field unless the
/// entry is a valid lktm.stats.v1 run: every field of its type (integers
/// plain and within u64), known status and backend, threads <= cores,
/// banks >= 1, "ok" equal to status ok with no violations, stats unique and
/// path-sorted, each a counter or a histogram with its kind's fields
/// (histogram buckets ascending and below Histogram::kBuckets), and
/// "derived" equal to DerivedMetrics::of the parsed run.
RunResult runResultFromJson(const stats::json::Value& run);

/// Every run of a parsed lktm.stats.v1 document (at least one). Throws
/// std::runtime_error, with the run's index, on any invalid run.
std::vector<RunResult> statsRunsFromJson(const stats::json::Value& doc);

/// Every run of a parsed lktm.summary.v1 document (at least one). Throws
/// std::runtime_error, with the run's index, on any invalid run.
std::vector<SummaryRun> summaryRunsFromJson(const stats::json::Value& doc);

/// Load a single-run artifact file written by writeStatsJsonFile. Throws
/// std::runtime_error when the file is unreadable or not a valid one-run
/// lktm.stats.v1 document.
RunResult loadStatsArtifact(const std::string& path);

}  // namespace lktm::cfg
