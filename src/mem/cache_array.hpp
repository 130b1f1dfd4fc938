// Set-associative cache data/tag array with LRU replacement and per-line
// transactional read/write bits (the L1 read/write-set tracking of best-effort
// HTM). Pure storage: all protocol policy lives in the controllers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/state_hash.hpp"
#include "sim/types.hpp"

namespace lktm::mem {

enum class MesiState : std::uint8_t { I = 0, S, E, M };

const char* toString(MesiState s);

/// One cache line's worth of data, word-granular so workloads can store and
/// load real values (enables end-to-end atomicity checking).
using LineData = std::array<std::uint64_t, kWordsPerLine>;

struct CacheEntry {
  LineAddr line = 0;
  MesiState state = MesiState::I;
  bool dirty = false;    ///< holds data newer than the LLC copy
  bool txRead = false;   ///< in the current transaction's read set
  bool txWrite = false;  ///< speculatively written by the current transaction
  LineData data{};
  std::uint64_t lru = 0;  ///< last-touch stamp, larger == more recent

  bool valid() const { return state != MesiState::I; }
  bool transactional() const { return txRead || txWrite; }

  void invalidate() {
    state = MesiState::I;
    dirty = txRead = txWrite = false;
  }
};

struct CacheGeometry {
  std::uint64_t sizeBytes = 32 * 1024;
  unsigned assoc = 4;

  unsigned numSets() const {
    return static_cast<unsigned>(sizeBytes / kLineBytes / assoc);
  }
};

class CacheArray {
 public:
  explicit CacheArray(CacheGeometry geo);

  unsigned numSets() const { return sets_; }
  unsigned assoc() const { return geo_.assoc; }
  /// sets_ is a power of two (the constructor rejects anything else).
  unsigned setOf(LineAddr line) const { return static_cast<unsigned>(line & (sets_ - 1)); }

  /// Returns the valid entry holding `line`, or nullptr.
  CacheEntry* find(LineAddr line);
  const CacheEntry* find(LineAddr line) const;

  /// Contiguous view of one set's ways (entries_ is row-major per set).
  struct WaySpan {
    CacheEntry* first = nullptr;
    unsigned count = 0;

    CacheEntry* begin() const { return first; }
    CacheEntry* end() const { return first + count; }
    unsigned size() const { return count; }
    CacheEntry& operator[](unsigned i) { return first[i]; }
  };

  /// All ways of the set `line` maps to (valid or not). No allocation: the
  /// span aliases the backing array and stays valid for the array's lifetime.
  WaySpan ways(LineAddr line);

  /// First invalid way of the set, or nullptr if the set is full.
  CacheEntry* invalidWay(LineAddr line);

  /// Least-recently-used valid way satisfying `pred`, or nullptr.
  template <class Pred>
  CacheEntry* lruWay(LineAddr line, Pred&& pred) {
    CacheEntry* b = base(setOf(line));
    CacheEntry* best = nullptr;
    for (unsigned w = 0; w < geo_.assoc; ++w) {
      if (!b[w].valid() || !pred(std::as_const(b[w]))) continue;
      if (best == nullptr || b[w].lru < best->lru) best = &b[w];
    }
    return best;
  }

  /// Mark `e` as most recently used.
  void touch(CacheEntry& e) { e.lru = ++stamp_; }
  /// `times` touches of `e` in a row.
  void touch(CacheEntry& e, std::uint64_t times) { e.lru = stamp_ += times; }

  /// Install `line` into the given (previously victimized) entry.
  void install(CacheEntry& e, LineAddr line, MesiState st, const LineData& data);

  /// Iterate over every valid entry in flat (set-major, then way) order.
  template <class Fn>
  void forEachValid(Fn&& fn) {
    for (CacheEntry& e : entries_) {
      if (e.valid()) fn(e);
    }
  }
  template <class Fn>
  void forEachValid(Fn&& fn) const {
    for (const CacheEntry& e : entries_) {
      if (e.valid()) fn(e);
    }
  }

  /// Flat index of an entry (set * assoc + way): the order forEachValid
  /// visits. entryAt() is its inverse; numEntries() bounds it.
  std::size_t indexOf(const CacheEntry& e) const {
    return static_cast<std::size_t>(&e - entries_.data());
  }
  CacheEntry& entryAt(std::size_t index) { return entries_[index]; }
  std::size_t numEntries() const { return entries_.size(); }

  /// Fold the array's behaviour-relevant state into a model-checker
  /// fingerprint: per (set, way) the tag/state/dirty/tx bits and data, plus
  /// the way's LRU *rank* within its set. Raw LRU stamps grow monotonically
  /// and would make every state unique; only their relative order steers
  /// victim selection, so only the rank is hashed.
  void hashState(sim::StateHasher& h) const;

  template <class Pred>
  std::uint64_t countIf(Pred&& pred) const {
    std::uint64_t n = 0;
    for (const CacheEntry& e : entries_) {
      if (e.valid() && pred(e)) ++n;
    }
    return n;
  }

 private:
  CacheGeometry geo_;
  unsigned sets_;
  std::vector<CacheEntry> entries_;  // sets_ x assoc, row-major
  std::uint64_t stamp_ = 0;

  CacheEntry* base(unsigned set) { return entries_.data() + static_cast<std::size_t>(set) * geo_.assoc; }
  const CacheEntry* base(unsigned set) const {
    return entries_.data() + static_cast<std::size_t>(set) * geo_.assoc;
  }
};

}  // namespace lktm::mem
