// lktm_check: exhaustive protocol model checker driver.
//
// Explores every message-delivery/core-step interleaving of a small named
// configuration (see --list) by DFS over ScheduleOracle choice points, checks
// the InvariantPack at every state, and reports visited-state / choice-point
// counts. With --inject-bug it plants a known protocol bug and is expected to
// find a counterexample, which --cex-out dumps as a replayable schedule.
//
// Exit codes: 0 = clean (exhaustive unless truncated), 1 = violation found,
// 2 = usage error.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_number.hpp"
#include "verify/checker.hpp"
#include "verify/harness.hpp"

namespace {

void usage() {
  std::printf(
      "usage: lktm_check --config NAME [options]\n"
      "       lktm_check --replay FILE [--config NAME]\n"
      "       lktm_check --list\n"
      "\n"
      "options:\n"
      "  --config NAME      configuration to check (see --list)\n"
      "  --depth N          max events per schedule path (default 100000)\n"
      "  --max-paths N      stop after N schedules (default: unlimited)\n"
      "  --max-states N     stop after N distinct states (default: unlimited)\n"
      "  --inject-bug KIND  plant a bug: swmr-skip-inv\n"
      "  --cex-out FILE     write the first counterexample to FILE\n"
      "  --replay FILE      re-run the schedule in a counterexample file\n"
      "  --list             list configurations and exit\n");
}

void printResult(const lktm::verify::CheckResult& r) {
  std::printf("paths explored:   %llu\n",
              static_cast<unsigned long long>(r.pathsExplored));
  std::printf("states visited:   %llu\n",
              static_cast<unsigned long long>(r.statesVisited));
  std::printf("choice points:    %llu\n",
              static_cast<unsigned long long>(r.choicePoints));
  std::printf("pruned paths:     %llu\n",
              static_cast<unsigned long long>(r.prunedPaths));
  std::printf("events executed:  %llu\n",
              static_cast<unsigned long long>(r.eventsExecuted));
  if (r.clean()) {
    std::printf("result:           CLEAN (%s)\n",
                r.exhaustive() ? "exhaustive" : "TRUNCATED — absence not proven");
    return;
  }
  std::printf("result:           VIOLATION\n");
  for (const lktm::verify::Violation& v : r.violations) {
    std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
  }
  if (!r.deadlockDiagnostic.empty()) {
    std::printf("%s", r.deadlockDiagnostic.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string configName;
  std::string bugName = "none";
  std::string cexOut;
  std::string replayFile;
  lktm::verify::CheckOptions opt;
  bool listOnly = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lktm_check: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      listOnly = true;
    } else if (arg == "--config") {
      const char* v = next("--config");
      if (v == nullptr) return 2;
      configName = v;
    } else if (arg == "--depth") {
      const char* v = next("--depth");
      if (v == nullptr) return 2;
      const auto n = lktm::cli::parseUnsigned<std::uint64_t>(v);
      if (!n.has_value() || *n == 0) {
        std::fprintf(stderr, "lktm_check: bad --depth value '%s'\n", v);
        return 2;
      }
      opt.maxEventsPerPath = *n;
    } else if (arg == "--max-paths") {
      const char* v = next("--max-paths");
      if (v == nullptr) return 2;
      const auto n = lktm::cli::parseUnsigned<std::uint64_t>(v);
      if (!n.has_value() || *n == 0) {
        std::fprintf(stderr, "lktm_check: bad --max-paths value '%s'\n", v);
        return 2;
      }
      opt.maxPaths = *n;
    } else if (arg == "--max-states") {
      const char* v = next("--max-states");
      if (v == nullptr) return 2;
      const auto n = lktm::cli::parseUnsigned<std::uint64_t>(v);
      if (!n.has_value() || *n == 0) {
        std::fprintf(stderr, "lktm_check: bad --max-states value '%s'\n", v);
        return 2;
      }
      opt.maxStates = *n;
    } else if (arg == "--inject-bug") {
      const char* v = next("--inject-bug");
      if (v == nullptr) return 2;
      bugName = v;
    } else if (arg == "--cex-out") {
      const char* v = next("--cex-out");
      if (v == nullptr) return 2;
      cexOut = v;
    } else if (arg == "--replay") {
      const char* v = next("--replay");
      if (v == nullptr) return 2;
      replayFile = v;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "lktm_check: unknown argument '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (listOnly) {
    for (const std::string& n : lktm::verify::configNames()) {
      std::printf("%s\n", n.c_str());
    }
    return 0;
  }

  if (!replayFile.empty()) {
    const auto cex = lktm::verify::readCounterexample(replayFile);
    if (!cex.has_value()) {
      std::fprintf(stderr, "lktm_check: cannot parse counterexample '%s'\n",
                   replayFile.c_str());
      return 2;
    }
    // --config overrides the file's record (useful for cross-checking).
    const std::string name = configName.empty() ? cex->configName : configName;
    auto cfg = lktm::verify::namedConfig(name);
    if (!cfg.has_value()) {
      std::fprintf(stderr, "lktm_check: unknown config '%s'\n", name.c_str());
      return 2;
    }
    cfg->bug = cex->bug;
    std::printf("replaying %s (%zu forced choices, bug=%s)\n", name.c_str(),
                cex->schedule.size(), lktm::verify::toString(cex->bug));
    const auto result =
        lktm::verify::ModelChecker::replaySchedule(*cfg, cex->schedule,
                                                   opt.maxEventsPerPath);
    printResult(result);
    return result.clean() ? 0 : 1;
  }

  if (configName.empty()) {
    usage();
    return 2;
  }
  auto cfg = lktm::verify::namedConfig(configName);
  if (!cfg.has_value()) {
    std::fprintf(stderr, "lktm_check: unknown config '%s' (try --list)\n",
                 configName.c_str());
    return 2;
  }
  const auto bug = lktm::verify::bugFromString(bugName);
  if (!bug.has_value()) {
    std::fprintf(stderr, "lktm_check: unknown bug '%s'\n", bugName.c_str());
    return 2;
  }
  cfg->bug = *bug;

  std::printf("checking %s (%u cores, %u bank(s), bug=%s)\n", cfg->name.c_str(),
              cfg->cores, cfg->banks, lktm::verify::toString(cfg->bug));
  lktm::verify::ModelChecker checker(*cfg, opt);
  const auto result = checker.run();
  printResult(result);

  if (result.cex.has_value() && !cexOut.empty()) {
    lktm::verify::writeCounterexample(cexOut, *result.cex);
    std::printf(
        "counterexample written to %s (embedded trace-event stream: %zu "
        "bytes, extract the trace-events section for Perfetto)\n",
        cexOut.c_str(), result.cex->traceJson.size());
  }
  return result.clean() ? 0 : 1;
}
