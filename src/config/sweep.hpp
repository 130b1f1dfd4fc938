// Sweep building blocks: per-job seeds, the host worker pool and the
// cross-product convenience the figure benches and tests use. Figure
// reproduction runs hundreds of independent simulations (workload x system x
// threads x machine); each is single-threaded and deterministic, so sweeps
// parallelize perfectly across host cores. Each pool thread owns one
// SimContext and reuses it for every job it picks up, so a sweep allocates
// kernel memory (event slabs, message pools) once per host thread, not once
// per run. Every sweep runs as a manifest job list through runManifest
// (config/orchestrator.hpp); sweepSystems() is that path with an in-memory
// manifest.
//
// Determinism contract: a job's result depends only on its spec (including
// its seed) — never on hostThreads, on which worker ran it, or on what the
// worker's reused context executed before (regression-tested in
// tests/test_sweep.cpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "sim/context.hpp"

namespace lktm::cfg {

/// Default workload-generation seed of the figure sweeps (matches the
/// lktm_sim --seed default).
inline constexpr std::uint64_t kDefaultSweepSeed = 11;

/// Per-job RNG-stream seed, derived from the job's manifest identity (never
/// from worker/context state): splitmix64 over the base seed mixed with the
/// job's coordinates.
std::uint64_t jobRunSeed(std::uint64_t baseSeed, const std::string& system,
                         const std::string& workload, unsigned threads);

/// Run the (workload x system x threads) cross product on the caller's own
/// machine and system objects: makeManifest("", machine.name, ...) run in
/// memory by runManifest with gridRunner(). Results come back in manifest
/// order; a job that fails (crash, hang, timeout) still yields a result keyed
/// by its (system, workload, threads) and carrying its jobRunSeed().
std::vector<RunResult> sweepSystems(
    const MachineParams& machine, const std::vector<SystemSpec>& systems,
    const std::vector<std::string>& workloads, const std::vector<unsigned>& threads,
    unsigned hostThreads = 0);

/// Find the result for a (system, workload, threads) cell.
const RunResult* findResult(const std::vector<RunResult>& results,
                            const std::string& system, const std::string& workload,
                            unsigned threads);

namespace detail {

/// Worker-pool core of the job executor (detail::executeJobs): spin up
/// `hostThreads` workers (0 = hardware concurrency, never more than
/// `jobCount`), each owning one reused SimContext; every worker repeatedly
/// calls `claim` for the next job index (negative = no more work for this
/// worker) and hands it to `runOne`. `claim` and `runOne` must be
/// thread-safe.
void runWorkerPool(unsigned hostThreads, std::size_t jobCount,
                   const std::function<std::ptrdiff_t()>& claim,
                   const std::function<void(std::size_t, sim::SimContext&)>& runOne);

}  // namespace detail

}  // namespace lktm::cfg
