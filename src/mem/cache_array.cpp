#include "mem/cache_array.hpp"

#include <cassert>
#include <stdexcept>

namespace lktm::mem {

const char* toString(MesiState s) {
  switch (s) {
    case MesiState::I: return "I";
    case MesiState::S: return "S";
    case MesiState::E: return "E";
    case MesiState::M: return "M";
  }
  return "?";
}

namespace {
bool isPow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

CacheArray::CacheArray(CacheGeometry geo) : geo_(geo), sets_(geo.numSets()) {
  if (sets_ == 0 || !isPow2(sets_)) {
    throw std::invalid_argument("cache geometry must yield a power-of-two set count");
  }
  entries_.resize(static_cast<std::size_t>(sets_) * geo_.assoc);
}

CacheEntry* CacheArray::find(LineAddr line) {
  CacheEntry* b = base(setOf(line));
  for (unsigned w = 0; w < geo_.assoc; ++w) {
    if (b[w].valid() && b[w].line == line) return &b[w];
  }
  return nullptr;
}

const CacheEntry* CacheArray::find(LineAddr line) const {
  const CacheEntry* b = base(setOf(line));
  for (unsigned w = 0; w < geo_.assoc; ++w) {
    if (b[w].valid() && b[w].line == line) return &b[w];
  }
  return nullptr;
}

CacheArray::WaySpan CacheArray::ways(LineAddr line) {
  return WaySpan{base(setOf(line)), geo_.assoc};
}

CacheEntry* CacheArray::invalidWay(LineAddr line) {
  CacheEntry* b = base(setOf(line));
  for (unsigned w = 0; w < geo_.assoc; ++w) {
    if (!b[w].valid()) return &b[w];
  }
  return nullptr;
}

void CacheArray::install(CacheEntry& e, LineAddr line, MesiState st, const LineData& data) {
  assert(!e.valid());
  assert(setOf(line) == static_cast<unsigned>(indexOf(e) / geo_.assoc));
  e.line = line;
  e.state = st;
  e.dirty = false;
  e.txRead = e.txWrite = false;
  e.data = data;
  touch(e);
}

void CacheArray::hashState(sim::StateHasher& h) const {
  h.section(0x11);
  for (unsigned set = 0; set < sets_; ++set) {
    const CacheEntry* b = base(set);
    for (unsigned w = 0; w < geo_.assoc; ++w) {
      const CacheEntry& e = b[w];
      if (!e.valid()) {
        h.put(0);
        continue;
      }
      // LRU rank: how many valid ways of this set were touched before e.
      unsigned rank = 0;
      for (unsigned o = 0; o < geo_.assoc; ++o) {
        if (o != w && b[o].valid() && b[o].lru < e.lru) ++rank;
      }
      h.put(1);
      h.put(e.line);
      h.put(static_cast<std::uint64_t>(e.state) | (e.dirty ? 8u : 0u) |
            (e.txRead ? 16u : 0u) | (e.txWrite ? 32u : 0u));
      h.put(rank);
      for (std::uint64_t word : e.data) h.put(word);
    }
  }
}

}  // namespace lktm::mem
