// The determinism-and-protocol rule engine behind tools/lktm_lint. Files are
// classified into zones by their repo-relative path, and each rule applies
// per zone:
//
//   deterministic  src/{sim,coherence,core,cpu,mem,noc,runtime,workloads,
//                  verify} — code that runs inside simulated time, whose
//                  behavior must be a pure function of (config, seed)
//   host           src/{config,stats,lint}, tools/, tests/, bench/,
//                  examples/ — orchestration, reporting and harness code
//
// Rule catalog (see DESIGN.md §15 for the full rationale):
//   no-wall-clock            wall/steady clock reads outside the built-in
//                            allowlist (Engine's wall deadline, the distrib
//                            heartbeat/lease machinery) — both zones
//   no-unordered-iteration   std::unordered_map/set declared or iterated in
//                            the deterministic zone — use FlatLineTable /
//                            FlatLineSet or sorted extraction
//   no-unseeded-randomness   rand()/srand()/std::random_device anywhere;
//                            all randomness derives from jobRunSeed
//   no-pointer-order         hashing/ordering on pointer values in protocol
//                            state (std::hash<T*>, std::less<T*>,
//                            reinterpret_cast to [u]intptr_t) — deterministic
//                            zone
//   stat-path-literal        StatRegistry paths must be string literals or
//                            built with stats::statPath(...) — both zones
//   suppression-needs-reason a `lktm-lint: allow(...)` directive without a
//                            `-- reason` (or without a rule list); such a
//                            directive suppresses nothing
//
// Findings are suppressible with `// lktm-lint: allow(<rule>) -- <reason>`
// on the same line, the line above, or a block comment whose span ends on
// the line above. The reason is mandatory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lktm::lint {

/// Schema stamp of the JSON findings artifact (writeArtifact).
inline constexpr char kLintSchema[] = "lktm.lint.v1";

enum class Zone : std::uint8_t { Deterministic, Host };

const char* toString(Zone z);

/// Zone of a repo-relative path (forward slashes, no leading "./").
Zone zoneForPath(const std::string& relPath);

struct Finding {
  std::string file;
  unsigned line = 0;
  std::string rule;
  std::string excerpt;  ///< the offending source line, whitespace-trimmed
  Zone zone = Zone::Host;
  bool suppressed = false;
  std::string reason;  ///< the allow() directive's reason when suppressed
};

/// Every rule id, sorted — the artifact's "rules" block and --list-rules.
const std::vector<std::string>& allRules();
bool isRule(const std::string& name);

struct LintOptions {
  /// Restrict to these rule ids; empty means every rule.
  std::vector<std::string> rules;
};

/// Lint one file's contents. `relPath` picks the zone and is recorded in the
/// findings verbatim. Findings come back sorted by (line, rule).
std::vector<Finding> lintSource(const std::string& relPath,
                                const std::string& src,
                                const LintOptions& opts = {});

/// An aggregated lint run over many files, ready for the artifact writer.
struct LintRun {
  std::vector<Finding> findings;   ///< sorted by (file, line, rule)
  std::vector<std::string> rules;  ///< active rule ids, sorted
  std::size_t filesScanned = 0;

  std::size_t suppressedCount() const;
  std::size_t unsuppressedCount() const;
};

/// Emit the lktm.lint.v1 artifact through the deterministic raw-literal JSON
/// writer: same findings, same bytes, on any host.
void writeArtifact(std::ostream& os, const LintRun& run);

}  // namespace lktm::lint
