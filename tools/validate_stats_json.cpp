// validate_stats_json: check that versioned JSON artifacts conform to their
// declared schema. The file's own "schema" field picks the library reader
// that is that schema's only encoding — lktm.stats.v1 run artifacts and
// lktm.summary.v1 condensed grids (src/config/artifact.hpp), lktm.manifest.v3
// sweep manifests (src/config/orchestrator.hpp) — and the reader's first
// error is printed. Used as a CI stage in tools/run_checks.sh.
//
//   validate_stats_json <artifact.json> [more.json ...]
//
// Exit codes: 0 = every file validates, 1 = a file is invalid, 2 = usage /
// unreadable file.
#include <cstdio>
#include <exception>
#include <string>

#include "config/artifact.hpp"
#include "config/orchestrator.hpp"
#include "stats/json.hpp"

namespace {

using namespace lktm;

/// Validate one file's text; returns its schema name, throws the reader's
/// error when the document is invalid.
std::string validate(const std::string& text) {
  const stats::json::Value doc = stats::json::parse(text);
  const std::string schema = stats::json::needString(doc, "schema");
  if (schema == cfg::kStatsSchema) {
    cfg::statsRunsFromJson(doc);
  } else if (schema == cfg::kSummarySchema) {
    cfg::summaryRunsFromJson(doc);
  } else if (schema == cfg::kManifestSchema) {
    cfg::SweepManifest::fromJson(doc);
  } else {
    throw std::runtime_error("schema is \"" + schema + "\", expected \"" +
                             cfg::kStatsSchema + "\", \"" + cfg::kSummarySchema +
                             "\" or \"" + cfg::kManifestSchema + "\"");
  }
  return schema;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: validate_stats_json <artifact.json> [...]\n");
    return 2;
  }
  bool allOk = true;
  for (int i = 1; i < argc; ++i) {
    std::string text;
    try {
      text = cfg::readFile(argv[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "validate_stats_json: %s\n", e.what());
      return 2;
    }
    try {
      const std::string schema = validate(text);
      std::printf("%s: OK (%s)\n", argv[i], schema.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[i], e.what());
      allOk = false;
    }
  }
  return allOk ? 0 : 1;
}
