// validate_stats_json: check that a versioned JSON artifact conforms to its
// declared schema — lktm.stats.v1 run artifacts (src/config/artifact.hpp),
// lktm.manifest.v2 sweep manifests (src/config/orchestrator.hpp),
// lktm.summary.v1 condensed grids or lktm.lint.v1 findings reports
// (src/lint/rules.hpp); the file's
// own "schema" field picks the checker. Used as a CI stage in
// tools/run_checks.sh: lktm-sim / lktm_sweep / lktm_lint write artifacts,
// this validates them.
//
//   validate_stats_json <artifact.json> [more.json ...]
//
// Exit codes: 0 = every file validates, 1 = a file is invalid, 2 = usage /
// unreadable file.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "config/artifact.hpp"
#include "config/orchestrator.hpp"
#include "lint/rules.hpp"
#include "runtime/backends/backend.hpp"
#include "stats/json.hpp"

namespace {

using lktm::stats::json::Value;

std::vector<std::string> g_errors;

void fail(const std::string& what) { g_errors.push_back(what); }

bool requireNumber(const Value& obj, const char* key, const std::string& where) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->isNumber()) {
    fail(where + ": missing or non-numeric \"" + key + "\"");
    return false;
  }
  return true;
}

void checkStatEntry(const Value& e, const std::string& where) {
  const Value* path = e.find("path");
  const Value* kind = e.find("kind");
  if (path == nullptr || !path->isString() || path->text.empty()) {
    fail(where + ": stat entry without a \"path\" string");
    return;
  }
  const std::string at = where + " stat \"" + path->text + "\"";
  if (kind == nullptr || !kind->isString()) {
    fail(at + ": missing \"kind\"");
    return;
  }
  const std::string& k = kind->text;
  if (k == "counter" || k == "formula") {
    requireNumber(e, "value", at);
  } else if (k == "distribution") {
    requireNumber(e, "count", at);
    requireNumber(e, "sum", at);
    const Value* count = e.find("count");
    if (count != nullptr && count->isNumber() && count->number == 0) {
      // Empty distributions must omit extrema: a min/max of 0 would be
      // indistinguishable from a real 0-cycle sample.
      for (const char* f : {"min", "max"}) {
        if (e.find(f) != nullptr) {
          fail(at + ": \"" + f + "\" present on an empty distribution (count == 0)");
        }
      }
    } else {
      requireNumber(e, "min", at);
      requireNumber(e, "max", at);
    }
  } else if (k == "histogram") {
    requireNumber(e, "count", at);
    requireNumber(e, "sum", at);
    const Value* overflowed = e.find("overflowed");
    if (overflowed != nullptr && overflowed->kind != Value::Kind::Bool) {
      fail(at + ": \"overflowed\" must be a boolean");
    }
    const Value* buckets = e.find("buckets");
    if (buckets == nullptr || !buckets->isArray()) {
      fail(at + ": histogram without a \"buckets\" array");
      return;
    }
    for (const Value& b : *buckets->array) {
      if (!b.isArray() || b.array->size() != 2 || !b.array->at(0).isNumber() ||
          !b.array->at(1).isNumber()) {
        fail(at + ": bucket entries must be [bucket, count] pairs");
        return;
      }
    }
  } else {
    fail(at + ": unknown kind \"" + k + "\"");
  }
}

// The derived block shared by lktm.stats.v1 and lktm.summary.v1 runs.
// commit_rate is null (not 1.0) when the run made no speculative attempts;
// commit_latency carries the HDR-histogram percentiles in cycles.
void checkDerived(const Value& derived, const std::string& where) {
  const Value* rate = derived.find("commit_rate");
  if (rate == nullptr ||
      (!rate->isNumber() && rate->kind != Value::Kind::Null)) {
    fail(where + ": \"commit_rate\" must be a number or null");
  }
  for (const char* key : {"total_commits", "htm_commits", "lock_commits",
                          "stl_commits", "stm_commits", "aborts"}) {
    requireNumber(derived, key, where);
  }
  const Value* lat = derived.find("commit_latency");
  if (lat == nullptr || !lat->isObject()) {
    fail(where + ": missing \"commit_latency\" object");
    return;
  }
  const std::string lw = where + ".commit_latency";
  for (const char* key : {"count", "p50", "p90", "p99", "p999"}) {
    requireNumber(*lat, key, lw);
  }
  double prev = 0.0;
  for (const char* key : {"p50", "p90", "p99", "p999"}) {
    const Value* v = lat->find(key);
    if (v == nullptr || !v->isNumber()) return;
    if (v->number < prev) {
      fail(lw + ": percentiles not monotone at \"" + key + "\"");
      return;
    }
    prev = v->number;
  }
  const Value* count = lat->find("count");
  if (count != nullptr && count->isNumber() && count->number == 0 && prev != 0.0) {
    fail(lw + ": non-zero percentiles with count == 0");
  }
}

void checkRun(const Value& run, unsigned idx) {
  const std::string where = "runs[" + std::to_string(idx) + "]";
  for (const char* key : {"system", "workload", "machine", "diagnostic"}) {
    const Value* v = run.find(key);
    if (v == nullptr || !v->isString()) {
      fail(where + ": missing or non-string \"" + key + "\"");
    }
  }
  for (const char* key : {"threads", "cores", "banks", "seed", "cycles",
                          "wall_seconds"}) {
    requireNumber(run, key, where);
  }
  // "backend" arrived with the pluggable TM-backend registry; earlier
  // artifacts omit it. When present it must name a registered backend so
  // downstream row-grouping (Table II) can't silently mislabel a run.
  const Value* backendV = run.find("backend");
  if (backendV != nullptr) {
    if (!backendV->isString()) {
      fail(where + ": \"backend\" must be a string");
    } else if (!backendV->text.empty() &&
               !lktm::tm::isBackendName(backendV->text)) {
      fail(where + ": unknown backend \"" + backendV->text + "\" (valid: " +
           lktm::tm::backendNameList() + ")");
    }
  }
  // Machine-scale metadata must be self-consistent: a run cannot use more
  // threads than cores, and the directory always has at least one bank.
  const Value* threadsV = run.find("threads");
  const Value* coresV = run.find("cores");
  const Value* banksV = run.find("banks");
  if (threadsV != nullptr && coresV != nullptr && threadsV->isNumber() &&
      coresV->isNumber() && threadsV->number > coresV->number) {
    fail(where + ": threads (" + threadsV->text + ") exceed cores (" +
         coresV->text + ")");
  }
  if (banksV != nullptr && banksV->isNumber() && banksV->number < 1) {
    fail(where + ": banks must be >= 1");
  }
  if (const Value* ok = run.find("ok"); ok == nullptr || ok->kind != Value::Kind::Bool) {
    fail(where + ": missing or non-boolean \"ok\"");
  }
  const Value* status = run.find("status");
  lktm::cfg::RunStatus parsed;
  if (status == nullptr || !status->isString()) {
    fail(where + ": missing or non-string \"status\"");
  } else if (!lktm::cfg::runStatusFromString(status->text, parsed)) {
    fail(where + ": unknown status \"" + status->text + "\"");
  }
  const Value* violations = run.find("violations");
  if (violations == nullptr || !violations->isArray()) {
    fail(where + ": missing \"violations\" array");
  }
  const Value* derived = run.find("derived");
  if (derived == nullptr || !derived->isObject()) {
    fail(where + ": missing \"derived\" object");
  } else {
    checkDerived(*derived, where + ".derived");
  }
  const Value* stats = run.find("stats");
  if (stats == nullptr || !stats->isArray()) {
    fail(where + ": missing \"stats\" array");
    return;
  }
  std::string prev;
  std::set<std::string> seen;
  for (const Value& e : *stats->array) {
    checkStatEntry(e, where);
    const Value* path = e.find("path");
    if (path == nullptr || !path->isString()) continue;
    if (!seen.insert(path->text).second) {
      fail(where + ": duplicate stat path \"" + path->text + "\"");
    }
    if (!prev.empty() && path->text < prev) {
      fail(where + ": stats not path-sorted (\"" + path->text + "\" after \"" +
           prev + "\")");
    }
    prev = path->text;
  }
}

// Shared across lktm.summary.v1 runs: identity + scale + the derived block,
// but no full stat snapshot.
void checkSummaryRun(const Value& run, unsigned idx) {
  const std::string where = "runs[" + std::to_string(idx) + "]";
  for (const char* key : {"system", "workload", "machine", "status",
                          "diagnostic"}) {
    const Value* v = run.find(key);
    if (v == nullptr || !v->isString()) {
      fail(where + ": missing or non-string \"" + key + "\"");
    }
  }
  for (const char* key : {"threads", "cores", "banks", "seed", "cycles"}) {
    requireNumber(run, key, where);
  }
  const Value* status = run.find("status");
  lktm::cfg::RunStatus parsed;
  if (status != nullptr && status->isString() &&
      !lktm::cfg::runStatusFromString(status->text, parsed)) {
    fail(where + ": unknown status \"" + status->text + "\"");
  }
  const Value* derived = run.find("derived");
  if (derived == nullptr || !derived->isObject()) {
    fail(where + ": missing \"derived\" object");
  } else {
    checkDerived(*derived, where + ".derived");
  }
}

void checkSummary(const Value& doc) {
  const Value* source = doc.find("source");
  if (source == nullptr || !source->isString() ||
      source->text != lktm::cfg::kStatsSchema) {
    fail(std::string("missing or wrong \"source\" (expected \"") +
         lktm::cfg::kStatsSchema + "\")");
  }
  const Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->isArray()) {
    fail("missing \"runs\" array");
    return;
  }
  if (runs->array->empty()) fail("\"runs\" is empty");
  for (unsigned i = 0; i < runs->array->size(); ++i) {
    checkSummaryRun(runs->array->at(i), i);
  }
}

void checkManifest(const Value& doc) {
  const Value* dir = doc.find("artifact_dir");
  if (dir == nullptr || !dir->isString()) {
    fail("missing or non-string \"artifact_dir\"");
  }
  const Value* shardsV = doc.find("shards");
  if (shardsV == nullptr || !shardsV->isNumber() || shardsV->number < 1) {
    fail("\"shards\" must be a number >= 1");
  }
  const Value* jobs = doc.find("jobs");
  if (jobs == nullptr || !jobs->isArray()) {
    fail("missing \"jobs\" array");
    return;
  }
  std::set<std::string> ids;
  for (unsigned i = 0; i < jobs->array->size(); ++i) {
    const Value& j = jobs->array->at(i);
    const std::string where = "jobs[" + std::to_string(i) + "]";
    if (!j.isObject()) {
      fail(where + ": not an object");
      continue;
    }
    for (const char* key : {"id", "system", "workload", "machine", "diagnostic",
                            "artifact"}) {
      const Value* v = j.find(key);
      if (v == nullptr || !v->isString()) {
        fail(where + ": missing or non-string \"" + key + "\"");
      }
    }
    for (const char* key : {"threads", "seed", "attempts", "wall_seconds", "cycles"}) {
      requireNumber(j, key, where);
    }
    const Value* state = j.find("state");
    lktm::cfg::JobState parsed;
    if (state == nullptr || !state->isString()) {
      fail(where + ": missing or non-string \"state\"");
    } else if (!lktm::cfg::jobStateFromString(state->text, parsed)) {
      fail(where + ": unknown state \"" + state->text + "\"");
    } else if (parsed == lktm::cfg::JobState::Ok) {
      const Value* artifact = j.find("artifact");
      if (artifact != nullptr && artifact->isString() && artifact->text.empty()) {
        fail(where + ": state \"ok\" without an artifact path");
      }
    }
    const Value* id = j.find("id");
    if (id != nullptr && id->isString() && !ids.insert(id->text).second) {
      fail(where + ": duplicate job id \"" + id->text + "\"");
    }
  }
}

// lktm.lint.v1: the lktm_lint findings artifact (src/lint/rules.hpp). Rule
// ids must come from the live catalog, the suppressed/unsuppressed counters
// must agree with the findings array, and a suppressed finding must carry
// its allow() directive's reason.
void checkLint(const Value& doc) {
  const Value* filesV = doc.find("files_scanned");
  if (filesV == nullptr || !filesV->isNumber() || filesV->number < 0) {
    fail("missing or invalid \"files_scanned\"");
  }
  const Value* rules = doc.find("rules");
  std::set<std::string> activeRules;
  if (rules == nullptr || !rules->isArray()) {
    fail("missing \"rules\" array");
  } else {
    std::string prev;
    for (const Value& r : *rules->array) {
      if (!r.isString() || !lktm::lint::isRule(r.text)) {
        fail("rules[]: unknown rule id \"" + r.text + "\"");
        continue;
      }
      if (!prev.empty() && r.text <= prev) fail("rules[] not sorted/unique");
      prev = r.text;
      activeRules.insert(r.text);
    }
    if (activeRules.empty()) fail("\"rules\" is empty");
  }
  for (const char* key : {"unsuppressed", "suppressed"}) {
    requireNumber(doc, key, "lint report");
  }
  const Value* findings = doc.find("findings");
  if (findings == nullptr || !findings->isArray()) {
    fail("missing \"findings\" array");
    return;
  }
  std::size_t suppressed = 0;
  std::string prevKey;
  for (unsigned i = 0; i < findings->array->size(); ++i) {
    const Value& f = findings->array->at(i);
    const std::string where = "findings[" + std::to_string(i) + "]";
    if (!f.isObject()) {
      fail(where + ": not an object");
      continue;
    }
    for (const char* key : {"file", "rule", "zone", "reason", "excerpt"}) {
      const Value* v = f.find(key);
      if (v == nullptr || !v->isString()) {
        fail(where + ": missing or non-string \"" + key + "\"");
      }
    }
    const Value* line = f.find("line");
    if (line == nullptr || !line->isNumber() || line->number < 1) {
      fail(where + ": \"line\" must be a number >= 1");
    }
    const Value* rule = f.find("rule");
    if (rule != nullptr && rule->isString() && !activeRules.empty() &&
        activeRules.count(rule->text) == 0) {
      fail(where + ": rule \"" + rule->text + "\" not in the \"rules\" block");
    }
    const Value* zone = f.find("zone");
    if (zone != nullptr && zone->isString() && zone->text != "deterministic" &&
        zone->text != "host") {
      fail(where + ": unknown zone \"" + zone->text + "\"");
    }
    const Value* sup = f.find("suppressed");
    if (sup == nullptr || sup->kind != Value::Kind::Bool) {
      fail(where + ": missing or non-boolean \"suppressed\"");
    } else if (sup->boolean) {
      ++suppressed;
      const Value* reason = f.find("reason");
      if (reason == nullptr || !reason->isString() || reason->text.empty()) {
        fail(where + ": suppressed finding without a reason");
      }
    }
    const Value* file = f.find("file");
    if (file != nullptr && file->isString() && line != nullptr &&
        line->isNumber() && rule != nullptr && rule->isString()) {
      char key[32];
      std::snprintf(key, sizeof key, "%012.0f", line->number);
      const std::string sortKey = file->text + "\x01" + key + "\x01" + rule->text;
      if (!prevKey.empty() && sortKey < prevKey) {
        fail(where + ": findings not sorted by (file, line, rule)");
      }
      prevKey = sortKey;
    }
  }
  const Value* supV = doc.find("suppressed");
  if (supV != nullptr && supV->isNumber() &&
      supV->number != static_cast<double>(suppressed)) {
    fail("\"suppressed\" count disagrees with the findings array");
  }
  const Value* unsupV = doc.find("unsuppressed");
  if (unsupV != nullptr && unsupV->isNumber() &&
      unsupV->number !=
          static_cast<double>(findings->array->size() - suppressed)) {
    fail("\"unsuppressed\" count disagrees with the findings array");
  }
}

bool validateFile(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "validate_stats_json: cannot open %s\n", file.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  g_errors.clear();
  Value doc;
  try {
    doc = lktm::stats::json::parse(ss.str());
  } catch (const std::exception& e) {
    fail(e.what());
  }
  std::string schemaName = "?";
  if (g_errors.empty()) {
    const Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->isString()) {
      fail("missing \"schema\" string");
    } else if (schema->text == lktm::cfg::kStatsSchema) {
      schemaName = schema->text;
      const Value* runs = doc.find("runs");
      if (runs == nullptr || !runs->isArray()) {
        fail("missing \"runs\" array");
      } else {
        if (runs->array->empty()) fail("\"runs\" is empty");
        for (unsigned i = 0; i < runs->array->size(); ++i) {
          checkRun(runs->array->at(i), i);
        }
      }
    } else if (schema->text == lktm::cfg::kManifestSchema) {
      schemaName = schema->text;
      checkManifest(doc);
    } else if (schema->text == lktm::cfg::kSummarySchema) {
      schemaName = schema->text;
      checkSummary(doc);
    } else if (schema->text == lktm::lint::kLintSchema) {
      schemaName = schema->text;
      checkLint(doc);
    } else {
      fail("schema is \"" + schema->text + "\", expected \"" +
           lktm::cfg::kStatsSchema + "\", \"" + lktm::cfg::kManifestSchema +
           "\", \"" + lktm::cfg::kSummarySchema + "\", or \"" +
           lktm::lint::kLintSchema + "\"");
    }
  }

  if (g_errors.empty()) {
    std::printf("%s: OK (%s)\n", file.c_str(), schemaName.c_str());
    return true;
  }
  for (const std::string& e : g_errors) {
    std::fprintf(stderr, "%s: %s\n", file.c_str(), e.c_str());
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: validate_stats_json <artifact.json> [...]\n");
    return 2;
  }
  bool allOk = true;
  for (int i = 1; i < argc; ++i) allOk = validateFile(argv[i]) && allOk;
  return allOk ? 0 : 1;
}
