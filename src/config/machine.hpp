// Machine configurations: Table I (typical) plus the Fig 13 sensitivity
// configurations (small: 8KB L1 / 1MB LLC, large: 128KB L1 / 32MB LLC).
//
// Every knob that changes a result past the preset is part of the machine's
// *name*: MachineOverrides records it as a suffix, in this canonical order,
//   -cN        core count          -sig=N      HTMLock signature bits
//   -bN        LLC directory banks -net=ideal  contention-free network
//   -mWxH      mesh shape          -be=NAME    TM backend
// and machineByName parses those suffixes back — so a sweep manifest entry
// like "typical-c128-b8", "small-cache-sig=64" or "typical-be=tl2"
// round-trips through the orchestrator with no schema change and no code
// edits.
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
  /// TM backend forced by a "-be=NAME" name suffix; empty = let the system
  /// row / its policy decide (see tm::defaultBackendFor).
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

/// Overrides applied on top of a named preset; 0 / false / empty means "keep
/// the preset's value". Overriding cores without a mesh derives a
/// near-square mesh for the new core count automatically.
struct MachineOverrides {
  unsigned cores = 0;
  unsigned banks = 0;
  unsigned meshCols = 0;
  unsigned meshRows = 0;
  unsigned signatureBits = 0;
  bool idealNetwork = false;
  std::string backend;  ///< empty = keep the system's backend choice
};

/// Apply `ov` to `m`, suffixing the machine name ("-cN", "-bN", "-mWxH",
/// "-sig=N", "-net=ideal", "-be=NAME") so artifacts and manifests record the
/// configuration that ran. Throws std::invalid_argument on a backend name
/// not in the registry, on signature bits that are not a power of two, and
/// on a signature size or network that restates the preset's own; geometry
/// is not validated here — call m.validate() when final.
void applyMachineOverrides(MachineParams& m, const MachineOverrides& ov);

/// Look up a machine by name: the presets "typical", "small-cache" and
/// "large-cache", optionally scaled by suffixes as produced by
/// applyMachineOverrides — e.g. "typical-c128-b8",
/// "large-cache-c256-b16-m16x16", "typical-net=ideal" or "typical-be=hybrid".
/// Throws std::invalid_argument on an unknown name, a repeated suffix, a
/// malformed one, and on any spelling other than the canonical one (suffixes
/// out of order); the message names the canonical spelling. The sweep
/// manifest stores machines by these names, and each artifact repeats its
/// job's name.
MachineParams machineByName(const std::string& name);

}  // namespace lktm::cfg
