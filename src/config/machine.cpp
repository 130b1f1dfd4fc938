#include "config/machine.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "sim/core_mask.hpp"

namespace lktm::cfg {

MachineParams MachineParams::typical() { return MachineParams{}; }

MachineParams MachineParams::smallCache() {
  MachineParams m;
  m.name = "small-cache";
  m.l1 = mem::CacheGeometry{8 * 1024, 4};
  m.llcBytes = 1ull * 1024 * 1024;
  m.protocol.llcLatency = 10;  // smaller LLC is a touch faster
  return m;
}

MachineParams MachineParams::largeCache() {
  MachineParams m;
  m.name = "large-cache";
  m.l1 = mem::CacheGeometry{128 * 1024, 4};
  m.llcBytes = 32ull * 1024 * 1024;
  m.protocol.llcLatency = 16;  // bigger LLC is a touch slower
  return m;
}

void MachineParams::validate() const {
  if (numCores == 0) {
    throw std::invalid_argument("machine '" + name + "': core count must be >= 1");
  }
  if (numCores > sim::CoreMask::kMaxCores) {
    throw std::invalid_argument(
        "machine '" + name + "': " + std::to_string(numCores) +
        " cores exceed the simulator's limit of " +
        std::to_string(sim::CoreMask::kMaxCores) + " cores");
  }
  if (numBanks == 0 || (numBanks & (numBanks - 1)) != 0) {
    throw std::invalid_argument("machine '" + name + "': bank count must be a power of two, got " +
                                std::to_string(numBanks));
  }
  if (numBanks > numCores) {
    throw std::invalid_argument(
        "machine '" + name + "': " + std::to_string(numBanks) +
        " banks exceed the core count (" + std::to_string(numCores) +
        "); each bank needs a distinct home node");
  }
  if (!idealNetwork) {
    if (mesh.cols == 0 || mesh.rows == 0) {
      throw std::invalid_argument("machine '" + name + "': mesh must be at least 1x1, got " +
                                  std::to_string(mesh.cols) + "x" + std::to_string(mesh.rows));
    }
    if (mesh.cols * mesh.rows < numCores) {
      throw std::invalid_argument(
          "machine '" + name + "': mesh " + std::to_string(mesh.cols) + "x" +
          std::to_string(mesh.rows) + " has " + std::to_string(mesh.cols * mesh.rows) +
          " tiles, fewer than " + std::to_string(numCores) +
          " cores (need cols*rows >= cores; try the suffix -m" +
          std::to_string(noc::MeshParams::forTiles(numCores).cols) + "x" +
          std::to_string(noc::MeshParams::forTiles(numCores).rows) + ")");
    }
  }
}

std::string MachineParams::describe() const {
  std::ostringstream oss;
  oss << name << ": " << numCores << " cores, ";
  if (numBanks > 1) oss << numBanks << " LLC banks, ";
  oss << "L1 " << l1.sizeBytes / 1024 << "KB/"
      << l1.assoc << "-way (" << protocol.l1HitLatency << "cyc), LLC "
      << llcBytes / (1024 * 1024) << "MB (" << protocol.llcLatency
      << "cyc), mem " << protocol.memLatency << "cyc, ";
  if (idealNetwork) {
    oss << "ideal net (" << idealNetworkLatency << "cyc)";
  } else {
    oss << "mesh " << mesh.rows << "x" << mesh.cols;
  }
  return oss.str();
}

namespace {

/// Suffixes read from a machine name; 0 / false means "keep the preset's
/// value". Overriding cores without a mesh derives a near-square mesh for
/// the new core count.
struct MachineOverrides {
  unsigned cores = 0;
  unsigned banks = 0;
  unsigned meshCols = 0;
  unsigned meshRows = 0;
  unsigned signatureBits = 0;
  bool idealNetwork = false;
};

/// Apply `ov` to `m`, suffixing the machine name so artifacts and manifests
/// record the configuration that ran.
void applyMachineOverrides(MachineParams& m, const MachineOverrides& ov) {
  if (ov.cores != 0) {
    m.numCores = ov.cores;
    m.name += "-c" + std::to_string(ov.cores);
    if (ov.meshCols == 0) {
      // Derive a near-square grid for the new core count; keep the preset's
      // link/router latencies.
      const noc::MeshParams derived = noc::MeshParams::forTiles(ov.cores);
      m.mesh.cols = derived.cols;
      m.mesh.rows = derived.rows;
    }
  }
  if (ov.banks != 0) {
    m.numBanks = ov.banks;
    m.name += "-b" + std::to_string(ov.banks);
  }
  if (ov.meshCols != 0) {
    m.mesh.cols = ov.meshCols;
    m.mesh.rows = ov.meshRows;
    m.name += "-m" + std::to_string(ov.meshCols) + "x" + std::to_string(ov.meshRows);
  }
  if (ov.signatureBits != 0) {
    if ((ov.signatureBits & (ov.signatureBits - 1)) != 0) {
      throw std::invalid_argument("machine '" + m.name + "': signature bits must be a power " +
                                  "of two, got " + std::to_string(ov.signatureBits));
    }
    if (ov.signatureBits == m.signatureBits) {
      throw std::invalid_argument("machine '" + m.name + "': -sig=" +
                                  std::to_string(ov.signatureBits) +
                                  " restates the preset's own signature size");
    }
    m.signatureBits = ov.signatureBits;
    m.name += "-sig=" + std::to_string(ov.signatureBits);
  }
  if (ov.idealNetwork) {
    if (m.idealNetwork) {
      throw std::invalid_argument("machine '" + m.name +
                                  "': -net=ideal restates the preset's own network");
    }
    m.idealNetwork = true;
    m.name += "-net=ideal";
  }
}

/// Match one "-cN" / "-bN" / "-mWxH" / "-sig=N" / "-net=ideal" suffix token
/// of `name` into `ov`; returns the token's length (including the dash) or 0
/// when `name` ends in no such token. Tokens are parsed right-to-left so
/// preset names containing dashes ("small-cache") stay intact. Throws std::invalid_argument on a token `ov` already holds and on
/// a malformed "-sig=" / "-net=" token, which no preset name ends in.
std::size_t parseSuffixToken(const std::string& name, MachineOverrides& ov) {
  const std::size_t dash = name.rfind('-');
  if (dash == std::string::npos) return 0;
  const std::string tok = name.substr(dash + 1);
  if (tok.size() < 2) return 0;
  auto reject = [&](const std::string& why) {
    throw std::invalid_argument("machine '" + name + "': -" + tok + " " + why);
  };
  auto once = [&](bool alreadySet) {
    if (alreadySet) reject("repeats a suffix");
    return tok.size() + 1;
  };
  unsigned a = 0;
  unsigned b = 0;
  char tail = 0;
  if (tok.compare(0, 4, "sig=") == 0) {
    const std::string bits = tok.substr(4);
    const auto [end, ec] = std::from_chars(bits.data(), bits.data() + bits.size(), a);
    if (ec != std::errc{} || std::to_string(a) != bits || a == 0) {
      reject("needs a signature size N >= 1, written in decimal");
    }
    const std::size_t n = once(ov.signatureBits != 0);
    ov.signatureBits = a;
    return n;
  }
  if (tok.compare(0, 4, "net=") == 0) {
    if (tok != "net=ideal") reject("names no network (the only one is -net=ideal)");
    const std::size_t n = once(ov.idealNetwork);
    ov.idealNetwork = true;
    return n;
  }
  if (std::sscanf(tok.c_str(), "c%u%c", &a, &tail) == 1 && a != 0) {
    const std::size_t n = once(ov.cores != 0);
    ov.cores = a;
    return n;
  }
  if (std::sscanf(tok.c_str(), "b%u%c", &a, &tail) == 1 && a != 0) {
    const std::size_t n = once(ov.banks != 0);
    ov.banks = a;
    return n;
  }
  if (std::sscanf(tok.c_str(), "m%ux%u%c", &a, &b, &tail) == 2 && a != 0 && b != 0) {
    const std::size_t n = once(ov.meshCols != 0);
    ov.meshCols = a;
    ov.meshRows = b;
    return n;
  }
  return 0;
}

}  // namespace

MachineParams machineByName(const std::string& name) {
  // Strip scale suffixes right-to-left, then look up the base preset and
  // re-apply the overrides in canonical order; a name that does not come
  // back byte-identical is refused.
  std::string base = name;
  MachineOverrides ov;
  for (std::size_t n = parseSuffixToken(base, ov); n != 0;
       n = parseSuffixToken(base, ov)) {
    base.resize(base.size() - n);
  }

  MachineParams m;
  if (base == "typical") {
    m = MachineParams::typical();
  } else if (base == "small-cache" || base == "small") {
    m = MachineParams::smallCache();
  } else if (base == "large-cache" || base == "large") {
    m = MachineParams::largeCache();
  } else {
    throw std::invalid_argument("unknown machine: " + name);
  }
  applyMachineOverrides(m, ov);
  // One spelling per machine, so a manifest job's machine is its artifact's:
  // the short preset names ("small") and reordered suffixes are refused.
  if (m.name != name) {
    throw std::invalid_argument("machine '" + name + "' is not canonical: write '" +
                                m.name + "'");
  }
  return m;
}

}  // namespace lktm::cfg
