// Machine configurations: Table I (typical) plus the Fig 13 sensitivity
// configurations (small: 8KB L1 / 1MB LLC, large: 128KB L1 / 32MB LLC).
//
// Every knob that changes a result past the preset is part of the machine's
// *name*, as a suffix in this canonical order,
//   -cN        core count          -sig=N      HTMLock signature bits
//   -bN        LLC directory banks -net=ideal  contention-free network
//   -mWxH      mesh shape
// and machineByName parses those suffixes — so a sweep manifest entry like
// "typical-c128-b8" or "small-cache-sig=64" round-trips through the
// orchestrator with no schema change and no code edits. The TM backend is
// not a machine knob: the system row names it (cfg::SystemSpec).
#pragma once

#include <string>

#include "coherence/params.hpp"
#include "cpu/core.hpp"
#include "mem/cache_array.hpp"
#include "noc/mesh.hpp"

namespace lktm::cfg {

struct MachineParams {
  std::string name = "typical";
  unsigned numCores = 32;               ///< tiles on the mesh
  unsigned numBanks = 1;                ///< address-interleaved LLC directory banks
  mem::CacheGeometry l1{32 * 1024, 4};  ///< private, 4-way, 64B lines
  std::uint64_t llcBytes = 8ull * 1024 * 1024;  ///< shared L2 (latency model)
  coh::ProtocolParams protocol{};
  noc::MeshParams mesh{};              ///< 4x8, X-Y routing, 1-cycle links
  cpu::CpuParams cpu{};
  unsigned signatureBits = 2048;       ///< HTMLock LLC overflow signatures
  bool idealNetwork = false;           ///< contention-free fixed-latency net
  Cycle idealNetworkLatency = 6;       ///< ~average mesh traversal
  Cycle maxCycles = 400'000'000;       ///< per-run simulation budget
  Cycle watchdogWindow = 4'000'000;    ///< forward-progress hang detector
  /// Always empty: no machine picks a backend. Kept only because the
  /// benchmark in bench/e2e reads it; nothing else may.
  std::string backend;

  /// Table I baseline configuration.
  static MachineParams typical();
  /// Fig 13 "small cache": 8 KB L1, 1 MB LLC.
  static MachineParams smallCache();
  /// Fig 13 "large cache": 128 KB L1, 32 MB LLC.
  static MachineParams largeCache();

  /// Reject inconsistent configurations with a diagnostic instead of letting
  /// an assert fire deep in the simulator: core count within the 512-core
  /// CoreMask limit, bank count a power of two within
  /// [1, numCores], and mesh tiles >= numCores so every core gets a tile.
  /// Throws std::invalid_argument.
  void validate() const;

  std::string describe() const;
};

/// Look up a machine by name: the presets "typical", "small-cache" and
/// "large-cache", optionally followed by the suffixes above — e.g.
/// "typical-c128-b8", "large-cache-c256-b16-m16x16" or "typical-net=ideal".
/// A -cN without -mWxH derives a near-square mesh for N cores. Throws
/// std::invalid_argument on an unknown name, a repeated suffix, a malformed
/// one, a signature size that is not a power of two, a signature size or
/// network that restates the preset's own, and on any spelling other than
/// the canonical one (suffixes out of order); the message names the
/// canonical spelling. Geometry is not validated here: call validate(). The
/// sweep manifest stores machines by these names, and each artifact repeats
/// its job's name.
MachineParams machineByName(const std::string& name);

}  // namespace lktm::cfg
