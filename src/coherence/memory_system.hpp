// The coherent memory system of one simulated machine: main memory, the mesh
// or ideal NoC, the banked directory/LLC, and one L1 per running core, wired
// once (each L1 to the directory and to its peers). The runner, the model
// checker's harness and the test bed all build on it; a CPU (or a scripted
// driver) installs itself as each L1's CPU port afterwards.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "mem/main_memory.hpp"
#include "noc/mesh.hpp"
#include "sim/context.hpp"

namespace lktm::coh {

/// Defaults are the Table I machine with two running cores.
struct MemorySystemParams {
  unsigned cores = 2;   ///< L1s built: one per running core
  unsigned nodes = 32;  ///< machine core slots: NoC node ids, directory striping
  unsigned banks = 1;   ///< address-interleaved LLC directory banks
  mem::CacheGeometry l1{32 * 1024, 4};
  ProtocolParams protocol{};
  core::TmPolicy policy{};
  core::HtmLockUnitParams sig{};
  noc::MeshParams mesh{};
  bool idealNetwork = false;  ///< contention-free fixed-latency network
  Cycle idealNetworkLatency = 6;
  /// Fallback-lock line, for the L1s' `mutex` abort classification.
  LineAddr lockLine = static_cast<LineAddr>(-1);
};

class MemorySystem {
 public:
  MemorySystem(sim::SimContext& ctx, const MemorySystemParams& p);
  ~MemorySystem();

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  mem::MainMemory& memory() { return memory_; }
  DirectoryController& dir() { return dir_; }
  const DirectoryController& dir() const { return dir_; }
  L1Controller& l1(CoreId c) { return *l1s_.at(static_cast<std::size_t>(c)); }
  const L1Controller& l1(CoreId c) const { return *l1s_.at(static_cast<std::size_t>(c)); }
  unsigned cores() const { return static_cast<unsigned>(l1s_.size()); }
  /// The L1s in core order.
  std::vector<const L1Controller*> l1s() const;

  /// Coherent word read of the memory image: the dirty L1 copy if one
  /// exists, else main memory (which holds the LLC's data).
  std::uint64_t readWord(Addr addr) const;

  /// CoherenceChecker::check over every L1 and the directory; empty means
  /// every rule holds. Preconditions: protocol quiescent.
  std::vector<std::string> check() const;

 private:
  mem::MainMemory memory_;
  std::unique_ptr<noc::Network> net_;
  DirectoryController dir_;
  std::vector<std::unique_ptr<L1Controller>> l1s_;
};

}  // namespace lktm::coh
