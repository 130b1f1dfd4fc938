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
// Rule catalog (see DESIGN.md §14 for the full rationale):
//   no-wall-clock            wall/steady clock reads; no file is exempt
//                            — both zones
//   no-unordered-iteration   std::unordered_map/set declared or iterated in
//                            the deterministic zone — use FlatLineTable /
//                            FlatLineSet or sorted extraction
//   no-unseeded-randomness   rand()/srand()/std::random_device anywhere;
//                            every simulated draw comes from a workload
//                            generator's per-thread sim::Rng stream, seeded
//                            from the job's workload seed (JobSpec::seed)
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

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lktm::lint {

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

/// Every rule id, sorted (--list-rules).
const std::vector<std::string>& allRules();
bool isRule(const std::string& name);

/// Lint one file's contents. `relPath` picks the zone and is recorded in the
/// findings verbatim. Findings come back sorted by (line, rule).
std::vector<Finding> lintSource(const std::string& relPath,
                                const std::string& src);

/// An aggregated lint run over many files.
struct LintRun {
  std::vector<Finding> findings;  ///< sorted by (file, line, rule)
  std::size_t filesScanned = 0;

  std::size_t suppressedCount() const;
  std::size_t unsuppressedCount() const;
};

}  // namespace lktm::lint
