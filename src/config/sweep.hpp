// Sweep building blocks: per-job seeds. Figure reproduction
// runs hundreds of independent simulations (workload x system x threads x
// machine); each is single-threaded and deterministic, so sweeps parallelize
// perfectly across host cores. Every sweep runs as a manifest job list
// through runManifest (config/orchestrator.hpp) and its runSpec runner, whose
// pool threads each own one SimContext and reuse it for every job they pick
// up, so a sweep allocates kernel memory (event slabs, message pools) once
// per host thread, not once per run.
//
// Determinism contract: a job's result depends only on its spec (including
// its seed) — never on hostThreads, on which worker ran it, or on what the
// worker's reused context executed before (regression-tested in
// tests/test_sweep.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace lktm::cfg {

/// Default workload-generation seed of the figure sweeps (matches the
/// lktm_sim --seed default).
inline constexpr std::uint64_t kDefaultSweepSeed = 11;

/// Per-job run seed (RunResult::seed, and the seed the context RNG is reset
/// to; nothing draws from that RNG), derived from the job's manifest
/// identity (never from worker/context state): splitmix64 over the base seed
/// mixed with the job's coordinates.
std::uint64_t jobRunSeed(std::uint64_t baseSeed, const std::string& system,
                         const std::string& workload, unsigned threads);

}  // namespace lktm::cfg
