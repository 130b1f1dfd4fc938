// Command-line driver: run any (system x workload x threads x machine)
// configuration and print the full statistics report. The fastest way to
// explore the simulator without writing code.
//
//   lktm_sim --list
//   lktm_sim --system LockillerTM --workload vacation+ --threads 8
//   lktm_sim --system Baseline --workload yada --threads 32 --machine small-cache
//   lktm_sim --system LockillerTM --workload labyrinth --breakdown --seed 7
//   lktm_sim --system LockillerTM+sof --workload yada --machine typical-net=ideal
//
// Every knob that changes a result is a token of the system or machine name
// (see --list), so the artifact's names say which configuration ran.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "cli_number.hpp"
#include "config/artifact.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "runtime/backends/backend.hpp"
#include "sim/core_mask.hpp"
#include "sim/trace.hpp"
#include "stats/report.hpp"
#include "workloads/db_traffic.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace lktm;

void usage() {
  std::printf(
      "usage: lktm_sim [options]\n"
      "  --list                 list systems, workloads and machines\n"
      "  --system NAME          Table II system, optionally with policy\n"
      "                         tokens, e.g. Baseline+retries=4+noskip\n"
      "                         (default LockillerTM)\n"
      "  --workload NAME        STAMP analog, counter/bank/linkedlist, or a\n"
      "                         database-traffic workload: ycsb | ycsb-lo |\n"
      "                         ycsb-w | ycsb-scan | tpcc | sps | sps-part\n"
      "                         (default vacation+)\n"
      "  --threads N            1..numCores (default 8)\n"
      "  --machine M            typical | small-cache | large-cache,\n"
      "                         optionally with suffixes in canonical order,\n"
      "                         e.g. typical-c128-b8 or small-cache-sig=64\n"
      "                         (default typical)\n"
      "  --cores N              scale the machine to N cores (at most 512;\n"
      "                         derives a near-square mesh unless --mesh\n"
      "                         is given); a -cN machine suffix\n"
      "  --banks N              LLC directory banks (power of two <= cores);\n"
      "                         a -bN machine suffix\n"
      "  --mesh WxH             mesh geometry, e.g. --mesh 16x8; a -mWxH\n"
      "                         machine suffix\n"
      "  --backend NAME         force the TM backend (lockiller | cgl | tl2 |\n"
      "                         hybrid); default: the system row's choice.\n"
      "                         A -be=NAME machine suffix\n"
      "  --seed N               workload generation seed (default 11)\n"
      "  --breakdown            print the per-category time breakdown\n"
      "  --stats-json PATH      write the lktm.stats.v1 artifact to PATH\n"
      "  --trace PATH           write a Chrome trace_event JSON to PATH\n"
      "  --no-check             skip coherence checker + invariants\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string system = "LockillerTM";
  std::string workload = "vacation+";
  std::string machineName = "typical";
  // Machine-name suffixes the scale flags spell, joined in canonical order
  // whatever the order of the flags (a repeated flag repeats its suffix,
  // which machineByName refuses).
  std::string coresSuffix, banksSuffix, meshSuffix, backendSuffix;
  unsigned threads = 8;
  std::uint64_t seed = 11;
  bool breakdown = false;
  std::string statsJsonPath;
  std::string tracePath;
  bool check = true;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--list") {
      std::printf("systems:\n");
      for (const auto& s : cfg::evaluatedSystems()) {
        std::printf("  %-16s %s\n", s.name.c_str(), s.description.c_str());
      }
      std::printf("workloads:\n ");
      for (const auto& w : wl::stampNames()) std::printf(" %s", w.c_str());
      std::printf(" counter bank linkedlist\n ");
      for (const auto& w : wl::dbWorkloadNames()) std::printf(" %s", w.c_str());
      std::printf(
          "\n"
          "system policy tokens, in this order, each at most once:\n"
          "  %s\n"
          "machines: typical small-cache large-cache\n"
          "machine suffixes, in canonical order, each at most once:\n"
          "  -cN -bN -mWxH -sig=N -net=ideal -be=NAME (up to %u cores)\n"
          "backends:\n",
          cfg::kPolicyTokenGrammar, sim::CoreMask::kMaxCores);
      for (const auto& be : tm::backendRegistry()) {
        std::printf("  %-16s %s\n", be.name, be.summary);
      }
      return 0;
    } else if (a == "--system") {
      system = next();
    } else if (a == "--workload") {
      workload = next();
    } else if (a == "--threads") {
      threads = cli::unsignedArg<unsigned>("lktm-sim", "--threads", next());
    } else if (a == "--machine") {
      machineName = next();
    } else if (a == "--cores") {
      const auto cores = cli::unsignedArg<unsigned>("lktm-sim", "--cores", next());
      if (cores == 0) {
        std::fprintf(stderr, "--cores needs a positive core count\n");
        return 2;
      }
      coresSuffix += "-c" + std::to_string(cores);
    } else if (a == "--banks") {
      const auto banks = cli::unsignedArg<unsigned>("lktm-sim", "--banks", next());
      if (banks == 0) {
        std::fprintf(stderr, "--banks needs a positive bank count\n");
        return 2;
      }
      banksSuffix += "-b" + std::to_string(banks);
    } else if (a == "--mesh") {
      const std::string_view wxh = next();
      const std::size_t x = wxh.find('x');
      const auto cols = cli::parseUnsigned<unsigned>(wxh.substr(0, x));
      const auto rows = x == std::string_view::npos
                            ? std::nullopt
                            : cli::parseUnsigned<unsigned>(wxh.substr(x + 1));
      if (!cols.has_value() || !rows.has_value() || *cols == 0 || *rows == 0) {
        std::fprintf(stderr, "--mesh wants WxH, e.g. --mesh 16x8\n");
        return 2;
      }
      meshSuffix += "-m" + std::to_string(*cols) + "x" + std::to_string(*rows);
    } else if (a == "--backend") {
      const std::string backend = next();
      if (!tm::isBackendName(backend)) {
        std::fprintf(stderr, "unknown TM backend '%s' (valid: %s)\n", backend.c_str(),
                     tm::backendNameList().c_str());
        return 2;
      }
      backendSuffix += "-be=" + backend;
    } else if (a == "--seed") {
      seed = cli::unsignedArg<std::uint64_t>("lktm-sim", "--seed", next());
    } else if (a == "--breakdown") {
      breakdown = true;
    } else if (a == "--stats-json") {
      statsJsonPath = next();
    } else if (a == "--trace") {
      tracePath = next();
    } else if (a == "--no-check") {
      check = false;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "lktm-sim: unknown option '%s' (try --help)\n", a.c_str());
      return 2;
    }
  }

  cfg::RunConfig rc;
  try {
    rc.machine = cfg::machineByName(machineName + coresSuffix + banksSuffix + meshSuffix +
                                    backendSuffix);
    rc.machine.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  try {
    rc.system = cfg::systemByName(system);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s (try --list)\n", e.what());
    return 2;
  }
  if (threads == 0 || threads > rc.machine.numCores) {
    std::fprintf(stderr, "threads must be 1..%u\n", rc.machine.numCores);
    return 2;
  }
  rc.threads = threads;
  // The seed a sweep job of the same cell records, so the two artifacts
  // match byte for byte apart from wall_seconds.
  rc.rngSeed = cfg::jobRunSeed(seed, rc.system.name, workload, threads);
  rc.runCoherenceChecker = check;
  rc.verifyWorkload = check;

  sim::TraceSink sink;
  if (!tracePath.empty()) rc.traceSink = &sink;

  // Same factory the sweep orchestrator uses, so `lktm-sim --workload X`
  // and a sweep job named X run the identical generator parameterization.
  // Built before the run starts, so an unknown name is a usage error.
  std::unique_ptr<wl::Workload> job;
  try {
    job = cfg::makeJobWorkload(workload, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s (try --list)\n", e.what());
    return 2;
  }

  cfg::RunResult r;
  try {
    r = cfg::runSimulation(rc, [&] { return std::move(job); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("%s\n", r.str().c_str());
  std::printf("machine: %s\n", rc.machine.describe().c_str());
  std::printf("backend: %s\n", r.backend.c_str());
  stats::Table t({"metric", "value"});
  t.addRow({"cycles", std::to_string(r.cycles)});
  t.addRow({"commit rate", stats::Table::pct(r.commitRate())});
  t.addRow({"htm commits", std::to_string(r.htmCommits())});
  t.addRow({"lock commits", std::to_string(r.lockCommits())});
  t.addRow({"stl commits", std::to_string(r.stlCommits())});
  t.addRow({"stm commits", std::to_string(r.stmCommits())});
  t.addRow({"aborts", std::to_string(r.aborts())});
  const stats::SnapshotEntry lat = r.commitLatency();
  t.addRow({"commit latency txs", std::to_string(lat.count)});
  constexpr std::pair<const char*, unsigned> kPercentiles[] = {
      {"  latency p50", 500},
      {"  latency p90", 900},
      {"  latency p99", 990},
      {"  latency p999", 999}};
  for (const auto& [label, permille] : kPercentiles) {
    t.addRow({label,
              std::to_string(stats::histogramPercentile(lat, permille)) + " cyc"});
  }
  for (auto cause : {AbortCause::MemConflict, AbortCause::LockConflict,
                     AbortCause::Mutex, AbortCause::NonTran, AbortCause::Overflow,
                     AbortCause::Fault, AbortCause::Explicit}) {
    const auto n = r.abortCount(cause);
    if (n != 0) t.addRow({std::string("  abort/") + toString(cause), std::to_string(n)});
  }
  t.addRow({"rejects sent", std::to_string(r.rejectsSent())});
  t.addRow({"sig rejects", std::to_string(r.sigRejects())});
  t.addRow({"switch attempts/grants", std::to_string(r.switchAttempts()) + "/" +
                                          std::to_string(r.switchGrants())});
  t.addRow({"wakeups", std::to_string(r.wakeupsSent())});
  t.addRow({"net messages", std::to_string(r.messages())});
  t.addRow({"flit-hops", std::to_string(r.flitHops())});
  t.addRow({"L1 hit rate",
            stats::Table::pct(r.l1Hits() + r.l1Misses()
                                  ? double(r.l1Hits()) /
                                        double(r.l1Hits() + r.l1Misses())
                                  : 0.0)});
  t.addRow({"writebacks", std::to_string(r.writebacks())});
  std::printf("%s\n", t.str().c_str());

  if (breakdown) {
    const cfg::TimeBreakdown bd = r.breakdown();
    stats::Table bt({"category", "fraction", ""});
    for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
      const auto cat = static_cast<TimeCat>(c);
      bt.addRow({toString(cat), stats::Table::pct(bd.fraction(cat)),
                 stats::bar(bd.fraction(cat))});
    }
    std::printf("%s\n", bt.str().c_str());
  }

  if (!statsJsonPath.empty()) {
    if (!cfg::writeStatsJsonFile(statsJsonPath, r)) return 1;
    std::printf("stats artifact: %s\n", statsJsonPath.c_str());
  }
  if (!tracePath.empty()) {
    if (!sink.writeChromeJson(tracePath)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", tracePath.c_str());
      return 1;
    }
    std::printf("trace (%zu events): %s  [open in ui.perfetto.dev]\n",
                sink.size(), tracePath.c_str());
  }
  return r.ok() ? 0 : 1;
}
