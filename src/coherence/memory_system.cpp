#include "coherence/memory_system.hpp"

#include "coherence/checker.hpp"
#include "noc/ideal.hpp"

namespace lktm::coh {

namespace {

std::unique_ptr<noc::Network> makeNetwork(sim::SimContext& ctx,
                                          const MemorySystemParams& p) {
  if (p.idealNetwork) return std::make_unique<noc::IdealNetwork>(ctx, p.idealNetworkLatency);
  return std::make_unique<noc::MeshNetwork>(ctx, p.mesh);
}

}  // namespace

MemorySystem::MemorySystem(sim::SimContext& ctx, const MemorySystemParams& p)
    : net_(makeNetwork(ctx, p)),
      dir_(ctx, *net_, memory_, p.protocol, p.nodes, p.banks, p.sig) {
  memory_.attachStats(ctx.stats());
  l1s_.reserve(p.cores);
  for (unsigned i = 0; i < p.cores; ++i) {
    const auto id = static_cast<CoreId>(i);
    l1s_.push_back(std::make_unique<L1Controller>(ctx, *net_, id, p.l1, p.protocol,
                                                  p.policy, p.nodes));
    l1s_.back()->connectDirectory(&dir_);
    l1s_.back()->setLockLine(p.lockLine);
    dir_.connectL1(id, l1s_.back().get());
  }
  std::vector<MsgSink*> peers;
  for (auto& l1 : l1s_) peers.push_back(l1.get());
  for (auto& l1 : l1s_) l1->connectPeers(peers);
}

MemorySystem::~MemorySystem() = default;

std::vector<const L1Controller*> MemorySystem::l1s() const {
  std::vector<const L1Controller*> out;
  out.reserve(l1s_.size());
  for (const auto& l1 : l1s_) out.push_back(l1.get());
  return out;
}

std::uint64_t MemorySystem::readWord(Addr addr) const {
  const LineAddr line = lineOf(addr);
  for (const auto& l1 : l1s_) {
    const mem::CacheEntry* e = l1->cache().find(line);
    if (e != nullptr && e->dirty) return e->data[wordOf(addr)];
  }
  return memory_.readWord(addr);
}

std::vector<std::string> MemorySystem::check() const {
  return CoherenceChecker(l1s(), &dir_).check();
}

}  // namespace lktm::coh
