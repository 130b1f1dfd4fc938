#include "config/sweep.hpp"

#include <thread>

#include "config/orchestrator.hpp"

namespace lktm::cfg {

namespace detail {

void runWorkerPool(unsigned hostThreads, std::size_t jobCount,
                   const std::function<std::ptrdiff_t()>& claim,
                   const std::function<void(std::size_t, sim::SimContext&)>& runOne) {
  if (jobCount == 0) return;
  if (hostThreads == 0) {
    hostThreads = std::max(1u, std::thread::hardware_concurrency());
  }
  hostThreads = std::min<unsigned>(hostThreads, static_cast<unsigned>(jobCount));

  auto worker = [&] {
    sim::SimContext ctx;  // reused across every job this thread executes
    for (;;) {
      const std::ptrdiff_t i = claim();
      if (i < 0) return;
      runOne(static_cast<std::size_t>(i), ctx);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(hostThreads);
  for (unsigned t = 0; t < hostThreads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

}  // namespace detail

std::uint64_t jobRunSeed(std::uint64_t baseSeed, const std::string& system,
                         const std::string& workload, unsigned threads) {
  // FNV-1a over the coordinates, finished with a splitmix64 mix so adjacent
  // cells land in unrelated parts of the stream space.
  std::uint64_t h = 0xcbf29ce484222325ull ^ baseSeed;
  auto mixStr = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator so ("ab","c") != ("a","bc")
    h *= 0x100000001b3ull;
  };
  mixStr(system);
  mixStr(workload);
  h ^= threads;
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::vector<RunResult> sweepSystems(const MachineParams& machine,
                                    const std::vector<SystemSpec>& systems,
                                    const std::vector<std::string>& workloads,
                                    const std::vector<unsigned>& threads,
                                    unsigned hostThreads) {
  std::vector<std::string> names;
  for (const SystemSpec& s : systems) names.push_back(s.name);
  SweepManifest m = makeManifest("", machine.name, names, workloads, threads);
  OrchestratorOptions opts;
  opts.hostThreads = hostThreads;
  std::vector<RunResult> results;
  runManifest(m, "", opts, gridRunner(machine, systems), &results);
  return results;
}

const RunResult* findResult(const std::vector<RunResult>& results,
                            const std::string& system, const std::string& workload,
                            unsigned threads) {
  for (const auto& r : results) {
    if (r.system == system && r.workload == workload && r.threads == threads) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace lktm::cfg
