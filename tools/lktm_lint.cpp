// lktm_lint: the project's determinism-and-protocol static analyzer.
// Lexes C++ sources (src/lint/lexer.hpp), classifies each file into the
// sim-deterministic or host zone by path, and enforces the per-zone rule
// catalog of src/lint/rules.hpp. Findings are suppressible only via
// `// lktm-lint: allow(<rule>) -- <reason>` with a mandatory reason.
//
//   lktm_lint [options] [path ...]        lint files / directories (recursed)
//     --root DIR      repo root for zone classification (default: cwd)
//     --quiet         suppress per-finding output (summary only)
//     --list-rules    print the rule catalog and exit
//
// The rules' seeded-violation fixtures (src/lint/selftest.hpp) run as the
// LintRules tests of tests/test_lint.cpp.
//
// Exit codes: 0 = clean (no unsuppressed findings),
//             1 = unsuppressed findings,
//             2 = usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace {

namespace fs = std::filesystem;
using lktm::lint::Finding;
using lktm::lint::LintRun;

bool hasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Repo-relative, forward-slash path used for zone classification and
/// reporting; falls back to the path as given when it is not under root.
std::string relativeTo(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  const fs::path chosen =
      ec || rel.empty() || *rel.begin() == ".." ? p : rel;
  return chosen.generic_string();
}

int usage() {
  std::fprintf(stderr,
               "usage: lktm_lint [--root DIR] [--quiet] [--list-rules] [path ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string root = ".";
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lktm_lint: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list-rules") {
      for (const std::string& r : lktm::lint::allRules()) {
        std::printf("%s\n", r.c_str());
      }
      return 0;
    }
    if (arg == "--root") {
      root = next();
      continue;
    }
    if (arg == "--quiet") {
      quiet = true;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') return usage();
    paths.push_back(arg);
  }
  if (paths.empty()) return usage();

  // Collect the file set, sorted by repo-relative path so the output is
  // byte-stable regardless of argument or readdir order.
  std::vector<std::pair<std::string, fs::path>> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; !ec && it != end;
           it.increment(ec)) {
        if (it->is_regular_file() && hasLintableExtension(it->path())) {
          files.emplace_back(relativeTo(root, it->path()), it->path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.emplace_back(relativeTo(root, p), p);
    } else {
      std::fprintf(stderr, "lktm_lint: cannot read %s\n", p.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  LintRun run;
  for (const auto& [rel, path] : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "lktm_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ++run.filesScanned;
    for (Finding& f : lktm::lint::lintSource(rel, ss.str())) {
      run.findings.push_back(std::move(f));
    }
  }

  if (!quiet) {
    for (const Finding& f : run.findings) {
      if (f.suppressed) continue;
      std::printf("%s:%u: [%s] (%s zone) %s\n", f.file.c_str(), f.line,
                  f.rule.c_str(), toString(f.zone), f.excerpt.c_str());
    }
  }

  std::printf("lktm_lint: %zu file%s, %zu finding%s (%zu suppressed)\n",
              run.filesScanned, run.filesScanned == 1 ? "" : "s",
              run.unsuppressedCount(), run.unsuppressedCount() == 1 ? "" : "s",
              run.suppressedCount());
  return run.unsuppressedCount() == 0 ? 0 : 1;
}
