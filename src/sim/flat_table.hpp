// Open-addressed hash table keyed by 64-bit line addresses, replacing the
// node-based std::map / std::unordered_map tables on the coherence datapath
// (main memory's line store, directory line state, pending transactions,
// wait queues, MSHRs, wakeup tables, L1 writeback buffers and overflow
// shadow sets).
//
// Design:
//  * power-of-two capacity, linear probing, max load factor 3/4;
//  * backward-shift deletion (no tombstones), so probe chains stay canonical
//    and lookup cost never degrades with churn;
//  * the slot slab is kept across clear() — a table reused across simulation
//    runs (the SimContext reuse pattern of PR 1) reaches a zero-allocation
//    steady state after its first run;
//  * hash-order iteration is NOT deterministic across capacities, so every
//    caller with an ordering contract uses forEachOrdered(), which walks keys
//    in ascending order — exactly the old std::map order — via a reusable
//    scratch vector (no per-walk allocation in steady state).
//
// References returned by find()/operator[] are invalidated by any mutation
// (insert may rehash, erase back-shifts); callers hold them only within one
// message handler, which never interleaves a mutation of the same table.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lktm::sim {

namespace flat_detail {
inline std::uint64_t mixKey(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace flat_detail

template <class V>
class FlatLineTable {
 public:
  static constexpr std::size_t kMinCapacity = 16;

  FlatLineTable() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  bool contains(LineAddr key) const { return findSlot(key) != kNpos; }

  V* find(LineAddr key) {
    const std::size_t i = findSlot(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  const V* find(LineAddr key) const {
    const std::size_t i = findSlot(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }

  /// Find-or-default-insert (std::map::operator[] semantics).
  V& operator[](LineAddr key) { return *tryEmplace(key).first; }

  /// Returns {value*, inserted}. The value of an existing key is untouched.
  std::pair<V*, bool> tryEmplace(LineAddr key) {
    reserveForOneMore();
    std::size_t i = homeOf(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = next(i);
    }
    slots_[i].used = true;
    slots_[i].key = key;
    // No value reset needed: unused slots always hold V{} (resize
    // value-initializes, erase/clear restore it eagerly).
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Backward-shift erase; returns true when the key was present.
  bool erase(LineAddr key) {
    std::size_t i = findSlot(key);
    if (i == kNpos) return false;
    const std::size_t mask = slots_.size() - 1;
    slots_[i].used = false;
    slots_[i].value = V{};  // drop payload eagerly (e.g. queued messages)
    --size_;
    std::size_t j = i;
    while (true) {
      j = next(j);
      if (!slots_[j].used) break;
      const std::size_t home = homeOf(slots_[j].key);
      // Slot j may move into the hole unless its home lies inside (i, j].
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = std::move(slots_[j]);
        slots_[j].used = false;
        slots_[j].value = V{};
        i = j;
      }
    }
    return true;
  }

  /// Forget every entry but keep the slot slab (steady-state reuse).
  void clear() {
    for (auto& s : slots_) {
      if (s.used) {
        s.used = false;
        s.value = V{};
      }
    }
    size_ = 0;
  }

  /// Deterministic ordered walk: visits entries in ascending key order, the
  /// exact iteration order of the std::map tables this type replaced. The
  /// callback must not insert into or erase from this table.
  template <typename Fn>
  void forEachOrdered(Fn&& fn) {
    orderedKeysInto(scratch_);
    for (LineAddr k : scratch_) {
      const std::size_t i = findSlot(k);
      assert(i != kNpos);
      fn(slots_[i].key, slots_[i].value);
    }
  }
  template <typename Fn>
  void forEachOrdered(Fn&& fn) const {
    orderedKeysInto(scratch_);
    for (LineAddr k : scratch_) {
      const std::size_t i = findSlot(k);
      assert(i != kNpos);
      fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Hash-order walk (deterministic for a fixed op sequence, but NOT the
  /// ascending order of forEachOrdered). Only for callers whose result is
  /// order-independent — e.g. flag sweeps or any-match predicates on the hot
  /// path, where the ordered walk's sort would be pure overhead. The callback
  /// must not insert into or erase from this table.
  template <typename Fn>
  void forEachUnordered(Fn&& fn) {
    for (auto& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }
  template <typename Fn>
  void forEachUnordered(Fn&& fn) const {
    for (const auto& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    LineAddr key = 0;
    bool used = false;
    V value{};
  };

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::size_t homeOf(LineAddr key) const {
    return static_cast<std::size_t>(flat_detail::mixKey(key)) & (slots_.size() - 1);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  std::size_t findSlot(LineAddr key) const {
    if (slots_.empty()) return kNpos;
    std::size_t i = homeOf(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) return i;
      i = next(i);
    }
    return kNpos;
  }

  void reserveForOneMore() {
    if (slots_.empty()) {
      slots_.resize(kMinCapacity);
      return;
    }
    if ((size_ + 1) * 4 <= slots_.size() * 3) return;
    rehashTo(slots_.size() * 2);
  }

  void rehashTo(std::size_t newCapacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(newCapacity);
    size_ = 0;
    for (auto& s : old) {
      if (!s.used) continue;
      std::size_t i = homeOf(s.key);
      while (slots_[i].used) i = next(i);
      slots_[i].used = true;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      ++size_;
    }
  }

  void orderedKeysInto(std::vector<LineAddr>& keys) const {
    keys.clear();
    keys.reserve(size_);
    for (const auto& s : slots_) {
      if (s.used) keys.push_back(s.key);
    }
    std::sort(keys.begin(), keys.end());
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  mutable std::vector<LineAddr> scratch_;  ///< ordered-walk reuse buffer
};

/// Flat hash set of line addresses (same probing scheme), replacing the
/// std::set<LineAddr> shadow sets of the L1's overflow signatures.
class FlatLineSet {
 public:
  void insert(LineAddr key) { table_.tryEmplace(key); }
  bool erase(LineAddr key) { return table_.erase(key); }
  std::size_t count(LineAddr key) const { return table_.contains(key) ? 1 : 0; }
  bool contains(LineAddr key) const { return table_.contains(key); }
  std::size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }

  /// Ascending-order walk (== std::set order).
  template <typename Fn>
  void forEachOrdered(Fn&& fn) const {
    table_.forEachOrdered([&](LineAddr k, const Empty&) { fn(k); });
  }

 private:
  struct Empty {};
  FlatLineTable<Empty> table_;
};

}  // namespace lktm::sim
