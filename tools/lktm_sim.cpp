// Command-line driver: run one cell — a (system, workload, machine, threads,
// seed) sweep job — and print the full statistics report. The fastest way to
// explore the simulator without writing code.
//
//   lktm_sim --list
//   lktm_sim --system LockillerTM --workload vacation+ --threads 8
//   lktm_sim --system Baseline --workload yada --threads 32 --machine small-cache
//   lktm_sim --system LockillerTM --workload labyrinth --breakdown --seed 7
//   lktm_sim --system LockillerTM+sof --workload yada --machine typical-net=ideal
//   lktm_sim --system TL2-STM --workload genome --machine typical-c128-b8 --threads 64
//
// Every knob that changes a result is a token of the system or machine name
// (see --list), and the system row names the TM backend, so the artifact's
// names say which configuration ran. The run goes through the sweep's own
// runner (cfg::runSpec), so its artifact is the sweep job's artifact.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "cli_number.hpp"
#include "config/artifact.hpp"
#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "runtime/backends/backend.hpp"
#include "sim/context.hpp"
#include "sim/core_mask.hpp"
#include "sim/trace.hpp"
#include "stats/report.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace lktm;

void usage() {
  std::printf(
      "usage: lktm_sim [options]\n"
      "  --list                 list systems, workloads and machines\n"
      "  --system NAME          Table II system, optionally with policy\n"
      "                         tokens, e.g. Baseline+retries=4+noskip; the\n"
      "                         row names its TM backend (default LockillerTM)\n"
      "  --workload NAME        STAMP analog, counter/bank/linkedlist, or a\n"
      "                         database-traffic workload: ycsb | ycsb-lo |\n"
      "                         ycsb-w | ycsb-scan | tpcc | sps | sps-part\n"
      "                         (default vacation+)\n"
      "  --machine M            typical | small-cache | large-cache,\n"
      "                         optionally with suffixes in canonical order,\n"
      "                         e.g. typical-c128-b8 or small-cache-sig=64\n"
      "                         (default typical)\n"
      "  --threads N            1..the machine's cores (default 8)\n"
      "  --seed N               workload generation seed (default 11)\n"
      "  --breakdown            print the per-category time breakdown\n"
      "  --stats-json PATH      write the lktm.stats.v1 artifact to PATH\n"
      "  --trace PATH           write a Chrome trace_event JSON to PATH\n");
}

}  // namespace

int main(int argc, char** argv) {
  cfg::JobSpec spec{"LockillerTM", "vacation+", "typical", 8, cfg::kDefaultSweepSeed};
  bool breakdown = false;
  std::string statsJsonPath;
  std::string tracePath;

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
      std::printf("systems (name, TM backend, description):\n");
      for (const auto& s : cfg::evaluatedSystems()) {
        std::printf("  %-16s %-10s %s\n", s.name.c_str(), s.backendName().c_str(),
                    s.description.c_str());
      }
      // One line per family: STAMP (Fig 7), database (Table III), micro.
      std::printf("workloads:");
      const auto table = wl::workloadTable();
      for (std::size_t i = 0; i < table.size(); ++i) {
        const bool newFamily = i == 0 || table[i].family != table[i - 1].family;
        std::printf("%s %s", newFamily ? "\n " : "", std::string(table[i].name).c_str());
      }
      std::printf(
          "\n"
          "system policy tokens, in this order, each at most once:\n"
          "  %s\n"
          "machines: typical small-cache large-cache\n"
          "machine suffixes, in canonical order, each at most once:\n"
          "  -cN -bN -mWxH -sig=N -net=ideal (up to %u cores)\n"
          "backends:\n",
          cfg::kPolicyTokenGrammar, sim::CoreMask::kMaxCores);
      for (const auto& be : tm::backendRegistry()) {
        std::printf("  %-16s %s\n", be.name, be.summary);
      }
      return 0;
    } else if (a == "--system") {
      spec.system = next();
    } else if (a == "--workload") {
      spec.workload = next();
    } else if (a == "--threads") {
      spec.threads = cli::unsignedArg<unsigned>("lktm-sim", "--threads", next());
    } else if (a == "--machine") {
      spec.machine = next();
    } else if (a == "--seed") {
      spec.seed = cli::unsignedArg<std::uint64_t>("lktm-sim", "--seed", next());
    } else if (a == "--breakdown") {
      breakdown = true;
    } else if (a == "--stats-json") {
      statsJsonPath = next();
    } else if (a == "--trace") {
      tracePath = next();
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "lktm-sim: unknown option '%s' (try --help)\n", a.c_str());
      return 2;
    }
  }

  // Resolve every name before the run starts, so a bad one is a usage error.
  cfg::MachineParams machine;
  try {
    machine = cfg::machineByName(spec.machine);
    machine.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  try {
    cfg::systemByName(spec.system);
    cfg::makeJobWorkload(spec.workload, spec.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s (try --list)\n", e.what());
    return 2;
  }
  if (spec.threads == 0 || spec.threads > machine.numCores) {
    std::fprintf(stderr, "threads must be 1..%u\n", machine.numCores);
    return 2;
  }

  sim::SimContext ctx;
  sim::TraceSink sink;
  if (!tracePath.empty()) ctx.setTraceSink(&sink);
  cfg::RunResult r;
  try {
    r = cfg::runSpec(spec, {}, ctx);
  } catch (const std::invalid_argument& e) {
    // A cell that cannot run at its shape (a backend that refuses the
    // workload's transactions, a slice too thin for the thread count) is
    // refused while it is set up, before it runs or writes anything.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("%s\n", r.str().c_str());
  std::printf("machine: %s\n", machine.describe().c_str());
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
