#include "config/artifact.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <locale>
#include <sstream>
#include <stdexcept>

#include "stats/tx_stats.hpp"

namespace lktm::cfg {

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
      case stats::StatKind::Distribution:
        w.field("count", e.count);
        w.field("sum", e.sum);
        // No samples, no extrema: emitting min=0/max=0 would make an empty
        // stat indistinguishable from a real 0-cycle sample.
        if (e.count != 0) {
          w.field("min", e.min);
          w.field("max", e.max);
        }
        break;
      case stats::StatKind::Formula:
        w.field("value", e.number);
        break;
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
  w.beginObject();
  w.key("commit_rate");
  if (const auto rate = r.commitRate(); rate.has_value()) {
    w.value(*rate);
  } else {
    w.null();  // no speculative attempts — not a perfect 1.0
  }
  w.field("total_commits", r.totalCommits());
  w.field("htm_commits", r.htmCommits());
  w.field("lock_commits", r.lockCommits());
  w.field("stl_commits", r.stlCommits());
  w.field("stm_commits", r.stmCommits());
  w.field("aborts", r.aborts());
  const stats::SnapshotEntry lat = r.commitLatency();
  w.key("commit_latency");
  w.beginObject();
  w.field("count", lat.count);
  w.field("p50", stats::histogramPercentile(lat, 500));
  w.field("p90", stats::histogramPercentile(lat, 900));
  w.field("p99", stats::histogramPercentile(lat, 990));
  w.field("p999", stats::histogramPercentile(lat, 999));
  w.endObject();
  w.endObject();
  w.key("stats");
  writeSnapshotJson(w, r.stats);
  w.endObject();
}

}  // namespace

void writeStatsJson(std::ostream& os, const std::vector<const RunResult*>& runs) {
  os.imbue(std::locale::classic());
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kStatsSchema);
  w.key("runs");
  w.beginArray();
  for (const RunResult* r : runs) {
    if (r != nullptr) writeRun(w, *r);
  }
  w.endArray();
  w.endObject();
}

void writeStatsJson(std::ostream& os, const RunResult& run) {
  writeStatsJson(os, std::vector<const RunResult*>{&run});
}

bool writeFileAtomic(const std::string& path, const std::string& content,
                     const std::string& writer) {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> seq{0};
  const fs::path target(path);
  // Dot-prefixed, so directory scans (the claim spool's included) skip it.
  std::string name = "." + target.filename().string() + ".tmp.";
  if (!writer.empty()) name += writer + ".";
  name += std::to_string(::getpid()) + "." + std::to_string(seq.fetch_add(1));
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

void writeSummaryArtifact(const stats::json::Value& statsDoc, std::ostream& os) {
  using stats::json::Value;
  const Value* schema = statsDoc.find("schema");
  if (schema == nullptr || schema->text != kStatsSchema) {
    throw std::runtime_error(std::string("summary input is not a ") +
                             kStatsSchema + " document");
  }
  const Value* runs = statsDoc.find("runs");
  if (runs == nullptr || !runs->isArray()) {
    throw std::runtime_error("summary input has no \"runs\" array");
  }
  os.imbue(std::locale::classic());
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kSummarySchema);
  w.field("source", kStatsSchema);
  w.key("runs");
  w.beginArray();
  for (const Value& run : *runs->array) {
    if (!run.isObject()) continue;
    w.beginObject();
    // Fixed field order; numeric literals re-emitted raw so the summary is
    // exactly as byte-deterministic as the merged document it condenses.
    for (const char* key :
         {"system", "workload", "machine", "threads", "cores", "banks", "seed",
          "cycles", "status", "diagnostic"}) {
      const Value* v = run.find(key);
      if (v == nullptr) continue;
      w.key(key);
      if (v->isNumber()) {
        w.rawNumber(v->text);
      } else {
        w.value(v->text);
      }
    }
    if (const Value* derived = run.find("derived"); derived != nullptr) {
      w.key("derived");
      stats::json::writeValue(w, *derived);
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

namespace {

using stats::json::asU64;
using stats::json::Value;

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("malformed stats artifact: " + what);
}

const Value& need(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr) malformed(std::string("missing \"") + key + "\"");
  return *v;
}

stats::SnapshotEntry snapshotEntryFromJson(const Value& e) {
  stats::SnapshotEntry out;
  out.path = need(e, "path").text;
  const std::string& kind = need(e, "kind").text;
  if (kind == "counter") {
    out.kind = stats::StatKind::Counter;
    out.value = asU64(need(e, "value"));
  } else if (kind == "histogram") {
    out.kind = stats::StatKind::Histogram;
    out.count = asU64(need(e, "count"));
    out.sum = asU64(need(e, "sum"));
    if (const Value* of = e.find("overflowed"); of != nullptr) {
      out.overflowed = of->boolean;
    }
    const Value& buckets = need(e, "buckets");
    if (!buckets.isArray()) malformed(out.path + ": buckets is not an array");
    for (const Value& b : *buckets.array) {
      if (!b.isArray() || b.array->size() != 2) {
        malformed(out.path + ": bucket entries must be [bucket, count] pairs");
      }
      out.buckets.emplace_back(static_cast<unsigned>(asU64(b.array->at(0))),
                               asU64(b.array->at(1)));
    }
  } else if (kind == "distribution") {
    out.kind = stats::StatKind::Distribution;
    out.count = asU64(need(e, "count"));
    out.sum = asU64(need(e, "sum"));
    if (out.count != 0) {
      out.min = asU64(need(e, "min"));
      out.max = asU64(need(e, "max"));
    }
  } else if (kind == "formula") {
    out.kind = stats::StatKind::Formula;
    out.number = need(e, "value").number;
  } else {
    malformed(out.path + ": unknown stat kind \"" + kind + "\"");
  }
  return out;
}

}  // namespace

RunResult runResultFromJson(const Value& run) {
  if (!run.isObject()) malformed("run entry is not an object");
  RunResult r;
  r.system = need(run, "system").text;
  r.workload = need(run, "workload").text;
  r.machine = need(run, "machine").text;
  // Optional: pre-backend artifacts (schema-compatible) omit it.
  if (const Value* be = run.find("backend"); be != nullptr) r.backend = be->text;
  r.threads = static_cast<unsigned>(asU64(need(run, "threads")));
  r.cores = static_cast<unsigned>(asU64(need(run, "cores")));
  r.banks = static_cast<unsigned>(asU64(need(run, "banks")));
  r.seed = asU64(need(run, "seed"));
  r.cycles = asU64(need(run, "cycles"));
  if (!runStatusFromString(need(run, "status").text, r.status)) {
    malformed("unknown run status \"" + need(run, "status").text + "\"");
  }
  r.diagnostic = need(run, "diagnostic").text;
  r.wallSeconds = need(run, "wall_seconds").number;
  const Value& violations = need(run, "violations");
  if (!violations.isArray()) malformed("violations is not an array");
  for (const Value& v : *violations.array) r.violations.push_back(v.text);
  const Value& statsArr = need(run, "stats");
  if (!statsArr.isArray()) malformed("stats is not an array");
  for (const Value& e : *statsArr.array) {
    r.stats.add(snapshotEntryFromJson(e));
  }
  return r;
}

RunResult loadStatsArtifact(const std::string& path) {
  const Value doc = stats::json::parse(readFile(path));
  const Value* schema = doc.find("schema");
  if (schema == nullptr || schema->text != kStatsSchema) {
    malformed(path + ": not a " + std::string(kStatsSchema) + " document");
  }
  const Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->isArray() || runs->array->size() != 1) {
    malformed(path + ": expected exactly one run");
  }
  return runResultFromJson(runs->array->at(0));
}

}  // namespace lktm::cfg
