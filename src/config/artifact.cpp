#include "config/artifact.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "runtime/backends/backend.hpp"
#include "stats/tx_stats.hpp"

namespace lktm::cfg {

DerivedMetrics DerivedMetrics::of(const RunResult& r) {
  const stats::SnapshotEntry lat = r.commitLatency();
  DerivedMetrics d;
  d.commitRate = r.commitRate();
  d.totalCommits = r.totalCommits();
  d.htmCommits = r.htmCommits();
  d.lockCommits = r.lockCommits();
  d.stlCommits = r.stlCommits();
  d.stmCommits = r.stmCommits();
  d.aborts = r.aborts();
  d.latencyCount = lat.count;
  d.p50 = stats::histogramPercentile(lat, 500);
  d.p90 = stats::histogramPercentile(lat, 900);
  d.p99 = stats::histogramPercentile(lat, 990);
  d.p999 = stats::histogramPercentile(lat, 999);
  return d;
}

namespace {

/// The derived block's integer fields in emission order: the writer, the
/// reader and the stats cross-check all walk these two tables.
using DerivedField = std::pair<const char*, std::uint64_t DerivedMetrics::*>;
constexpr std::array<DerivedField, 6> kCommitFields{{
    {"total_commits", &DerivedMetrics::totalCommits},
    {"htm_commits", &DerivedMetrics::htmCommits},
    {"lock_commits", &DerivedMetrics::lockCommits},
    {"stl_commits", &DerivedMetrics::stlCommits},
    {"stm_commits", &DerivedMetrics::stmCommits},
    {"aborts", &DerivedMetrics::aborts},
}};
/// Inside "commit_latency"; the percentiles must ascend.
constexpr std::array<DerivedField, 5> kLatencyFields{{
    {"count", &DerivedMetrics::latencyCount},
    {"p50", &DerivedMetrics::p50},
    {"p90", &DerivedMetrics::p90},
    {"p99", &DerivedMetrics::p99},
    {"p999", &DerivedMetrics::p999},
}};

}  // namespace

void DerivedMetrics::writeJson(stats::json::Writer& w) const {
  w.beginObject();
  w.key("commit_rate");
  if (commitRate.has_value()) {
    w.value(*commitRate);
  } else {
    w.null();
  }
  for (const auto& [key, field] : kCommitFields) w.field(key, this->*field);
  w.key("commit_latency");
  w.beginObject();
  for (const auto& [key, field] : kLatencyFields) w.field(key, this->*field);
  w.endObject();
  w.endObject();
}

void writeSnapshotJson(stats::json::Writer& w, const stats::StatSnapshot& snap) {
  w.beginArray();
  for (const stats::SnapshotEntry& e : snap.entries()) {
    w.beginObject();
    w.field("path", e.path);
    w.field("kind", stats::toString(e.kind));
    switch (e.kind) {
      case stats::StatKind::Counter:
        w.field("value", e.value);
        break;
      case stats::StatKind::Histogram: {
        w.field("count", e.count);
        w.field("sum", e.sum);
        // Emitted only when set: absent means false, and the common case
        // stays byte-identical to pre-overflow-flag artifacts.
        if (e.overflowed) w.field("overflowed", true);
        w.key("buckets");
        w.beginArray();
        for (const auto& [b, n] : e.buckets) {
          w.beginArray();
          w.value(b);
          w.value(n);
          w.endArray();
        }
        w.endArray();
        break;
      }
    }
    w.endObject();
  }
  w.endArray();
}

namespace {

void writeRun(stats::json::Writer& w, const RunResult& r) {
  w.beginObject();
  w.field("system", r.system);
  w.field("workload", r.workload);
  w.field("machine", r.machine);
  w.field("backend", r.backend);
  w.field("threads", r.threads);
  w.field("cores", r.cores);
  w.field("banks", r.banks);
  w.field("seed", r.seed);
  w.field("cycles", r.cycles);
  w.field("ok", r.ok());
  w.field("status", toString(r.status));
  w.field("diagnostic", r.diagnostic);
  w.field("wall_seconds", r.wallSeconds);
  w.key("violations");
  w.beginArray();
  for (const std::string& v : r.violations) w.value(v);
  w.endArray();
  w.key("derived");
  DerivedMetrics::of(r).writeJson(w);
  w.key("stats");
  writeSnapshotJson(w, r.stats);
  w.endObject();
}

}  // namespace

void writeStatsJson(std::ostream& os, std::size_t count,
                    const std::function<const RunResult&(std::size_t)>& runAt) {
  os.imbue(std::locale::classic());
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kStatsSchema);
  w.key("runs");
  w.beginArray();
  for (std::size_t i = 0; i < count; ++i) writeRun(w, runAt(i));
  w.endArray();
  w.endObject();
}

void writeStatsJson(std::ostream& os, const RunResult& run) {
  writeStatsJson(os, 1, [&run](std::size_t) -> const RunResult& { return run; });
}

bool writeFileAtomic(const std::string& path, const std::string& content) {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> seq{0};
  const fs::path target(path);
  // Hidden (dot-prefixed), so a `dir/*.json` glob never picks up a
  // half-written file.
  std::string name = ".";
  name += target.filename().string();
  name += ".tmp.";
  name += std::to_string(::getpid());
  name += ".";
  name += std::to_string(seq.fetch_add(1));
  const fs::path tmp = target.parent_path() / name;
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out) {
      out << content;
      out.flush();
      written = static_cast<bool>(out);
    }
  }
  std::error_code ec;
  if (written) {
    fs::rename(tmp, target, ec);
    if (!ec) return true;
  }
  std::cerr << "error: cannot write " << path
            << (ec ? ": " + ec.message() : std::string()) << "\n";
  fs::remove(tmp, ec);
  return false;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool writeStatsJsonFile(const std::string& path, const RunResult& run) {
  std::ostringstream os;
  writeStatsJson(os, run);
  return writeFileAtomic(path, os.str());
}

namespace {

using stats::json::Value;
using stats::json::need;
using stats::json::needArray;
using stats::json::needNumber;
using stats::json::needString;
using stats::json::needU64;
using stats::json::needUnsigned;

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error(what);
}

/// Run `read`, prefixing any error it throws with `where` so a message
/// names the run, stat or block the bad field sits in.
template <class Read>
auto within(const std::string& where, Read&& read) {
  try {
    return read();
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(where + ": " + e.what());
  }
}

/// The identity and scale fields both run schemas carry. A run cannot use
/// more threads than cores, and the directory always has at least one bank.
void readIdentity(const Value& run, RunResult& r) {
  if (!run.isObject()) malformed("run entry is not an object");
  r.system = needString(run, "system");
  r.workload = needString(run, "workload");
  r.machine = needString(run, "machine");
  r.threads = needUnsigned(run, "threads");
  r.cores = needUnsigned(run, "cores");
  r.banks = needUnsigned(run, "banks");
  if (r.threads > r.cores) {
    malformed("threads (" + std::to_string(r.threads) + ") exceed cores (" +
              std::to_string(r.cores) + ")");
  }
  if (r.banks < 1) malformed("banks must be >= 1");
  r.seed = needU64(run, "seed");
  r.cycles = needU64(run, "cycles");
  const std::string& status = needString(run, "status");
  if (!runStatusFromString(status, r.status)) {
    malformed("unknown status \"" + status + "\"");
  }
  r.diagnostic = needString(run, "diagnostic");
}

stats::SnapshotEntry snapshotEntryFromJson(const Value& e) {
  stats::SnapshotEntry out;
  const std::string& kind = needString(e, "kind");
  if (kind == "counter") {
    out.kind = stats::StatKind::Counter;
    out.value = needU64(e, "value");
  } else if (kind == "histogram") {
    out.kind = stats::StatKind::Histogram;
    out.count = needU64(e, "count");
    out.sum = needU64(e, "sum");
    if (e.find("overflowed") != nullptr) {
      out.overflowed = stats::json::needBool(e, "overflowed");
    }
    for (const Value& b : needArray(e, "buckets")) {
      std::uint64_t index = 0;
      std::uint64_t n = 0;
      if (!b.isArray() || b.array->size() != 2 ||
          !stats::json::exactU64(b.array->at(0), index) ||
          !stats::json::exactU64(b.array->at(1), n)) {
        malformed("\"buckets\" entries must be [bucket, count] integer pairs");
      }
      if (index >= stats::Histogram::kBuckets) {
        malformed("bucket index " + std::to_string(index) + " is not below " +
                  std::to_string(stats::Histogram::kBuckets));
      }
      if (!out.buckets.empty() && index <= out.buckets.back().first) {
        malformed("\"buckets\" indices do not ascend at " + std::to_string(index));
      }
      out.buckets.emplace_back(static_cast<unsigned>(index), n);
    }
  } else {
    malformed("unknown kind \"" + kind + "\"");
  }
  return out;
}

template <class Run, class Read>
std::vector<Run> runsOf(const Value& doc, const char* schema, Read&& read) {
  const Value* stamp = doc.find("schema");
  if (stamp == nullptr || !stamp->isString() || stamp->text != schema) {
    malformed(std::string("not a ") + schema + " document");
  }
  const stats::json::Array& runs = needArray(doc, "runs");
  if (runs.empty()) malformed("\"runs\" is empty");
  std::vector<Run> out;
  out.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out.push_back(within("runs[" + std::to_string(i) + "]",
                         [&] { return read(runs[i]); }));
  }
  return out;
}

/// Throws naming the first field where the stored derived block `got`
/// differs from `want`, the block the run's own stats derive.
void requireDerived(const DerivedMetrics& got, const DerivedMetrics& want) {
  const auto differs = [](const std::string& key, std::uint64_t g, std::uint64_t w) {
    if (g != w) {
      malformed("\"" + key + "\" is " + std::to_string(g) +
                " but the run's stats derive " + std::to_string(w));
    }
  };
  if (got.commitRate != want.commitRate) {
    malformed("\"commit_rate\" disagrees with the run's stats");
  }
  for (const auto& [key, field] : kCommitFields) differs(key, got.*field, want.*field);
  for (const auto& [key, field] : kLatencyFields) {
    differs(std::string("commit_latency.") + key, got.*field, want.*field);
  }
}

}  // namespace

DerivedMetrics DerivedMetrics::fromJson(const Value& v) {
  if (!v.isObject()) malformed("\"derived\" is not an object");
  DerivedMetrics d;
  const Value& rate = need(v, "commit_rate");
  if (rate.isNumber()) {
    d.commitRate = rate.number;
  } else if (rate.kind != Value::Kind::Null) {
    malformed("\"commit_rate\" must be a number or null");
  }
  for (const auto& [key, field] : kCommitFields) d.*field = needU64(v, key);
  // Summed wide so hostile operands cannot wrap into a matching total.
  if (static_cast<unsigned __int128>(d.htmCommits) + d.lockCommits + d.stlCommits +
          d.stmCommits !=
      d.totalCommits) {
    malformed("\"total_commits\" is not the sum of the four commit kinds");
  }
  const Value& lat = need(v, "commit_latency");
  if (!lat.isObject()) malformed("\"commit_latency\" is not an object");
  within("commit_latency", [&] {
    std::uint64_t prev = 0;
    for (const auto& [key, field] : kLatencyFields) {
      d.*field = needU64(lat, key);
      if (field == &DerivedMetrics::latencyCount) continue;
      if (d.*field < prev) {
        malformed(std::string("percentiles not monotone at \"") + key + "\"");
      }
      if (d.latencyCount == 0 && d.*field != 0) {
        malformed(std::string("non-zero \"") + key + "\" with count == 0");
      }
      prev = d.*field;
    }
  });
  return d;
}

RunResult runResultFromJson(const Value& run) {
  RunResult r;
  readIdentity(run, r);
  r.backend = needString(run, "backend");
  if (!tm::isBackendName(r.backend)) {
    malformed("unknown backend \"" + r.backend + "\" (valid: " + tm::backendNameList() +
              ")");
  }
  r.wallSeconds = needNumber(run, "wall_seconds");
  for (const Value& v : needArray(run, "violations")) {
    if (!v.isString()) malformed("\"violations\" entries must be strings");
    r.violations.push_back(v.text);
  }
  if (stats::json::needBool(run, "ok") != r.ok()) {
    malformed("\"ok\" disagrees with \"status\" and \"violations\"");
  }
  const std::string* prev = nullptr;
  for (const Value& e : needArray(run, "stats")) {
    const std::string& path = needString(e, "path");
    if (path.empty()) malformed("stat entry with an empty \"path\"");
    if (prev != nullptr && path <= *prev) {
      malformed("stats not unique and path-sorted (\"" + path + "\" after \"" + *prev +
                "\")");
    }
    prev = &path;
    stats::SnapshotEntry entry =
        within("stat \"" + path + "\"", [&] { return snapshotEntryFromJson(e); });
    entry.path = path;
    r.stats.add(std::move(entry));
  }
  within("derived", [&] {
    requireDerived(DerivedMetrics::fromJson(need(run, "derived")), DerivedMetrics::of(r));
  });
  return r;
}

std::vector<RunResult> statsRunsFromJson(const Value& doc) {
  return runsOf<RunResult>(doc, kStatsSchema, runResultFromJson);
}

namespace {

/// The per-run reader of lktm.summary.v1, which the summary writer also
/// applies to lktm.stats.v1 runs: identity/scale fields and "derived".
SummaryRun summaryRunFromJson(const Value& run) {
  SummaryRun s;
  readIdentity(run, s.run);
  s.derived =
      within("derived", [&] { return DerivedMetrics::fromJson(need(run, "derived")); });
  return s;
}

}  // namespace

std::vector<SummaryRun> summaryRunsFromJson(const Value& doc) {
  const Value* source = doc.find("source");
  if (source == nullptr || !source->isString() || source->text != kStatsSchema) {
    malformed(std::string("\"source\" must be \"") + kStatsSchema + "\"");
  }
  return runsOf<SummaryRun>(doc, kSummarySchema, summaryRunFromJson);
}

void writeSummaryArtifact(const Value& statsDoc, std::ostream& os) {
  const std::vector<SummaryRun> runs =
      runsOf<SummaryRun>(statsDoc, kStatsSchema, summaryRunFromJson);
  os.imbue(std::locale::classic());
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kSummarySchema);
  w.field("source", kStatsSchema);
  w.key("runs");
  w.beginArray();
  for (const SummaryRun& s : runs) {
    const RunResult& r = s.run;
    w.beginObject();
    w.field("system", r.system);
    w.field("workload", r.workload);
    w.field("machine", r.machine);
    w.field("threads", r.threads);
    w.field("cores", r.cores);
    w.field("banks", r.banks);
    w.field("seed", r.seed);
    w.field("cycles", r.cycles);
    w.field("status", toString(r.status));
    w.field("diagnostic", r.diagnostic);
    w.key("derived");
    s.derived.writeJson(w);
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

RunResult loadStatsArtifact(const std::string& path) {
  const std::string text = readFile(path);
  return within(path, [&] {
    std::vector<RunResult> runs = statsRunsFromJson(stats::json::parse(text));
    if (runs.size() != 1) malformed("expected exactly one run");
    return std::move(runs.front());
  });
}

}  // namespace lktm::cfg
