// Slab-backed object pool. acquire()/recycle() are O(1) and allocation-free
// once the pool has grown to the workload's high-water mark; slabs are only
// released when the pool is destroyed, so a SimContext reused across sweep
// jobs reaches a zero-allocation steady state after the first run.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "sim/kernel_stats.hpp"

namespace lktm::sim {

template <class T>
class Pool {
 public:
  static constexpr std::size_t kSlabObjects = 64;

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Hand out a recycled object (contents unspecified: assign before use).
  T* acquire() {
    if (free_.empty()) grow();
    T* p = free_.back();
    free_.pop_back();
    return p;
  }

  /// Hand out an object holding `v`.
  T* acquire(T&& v) {
    T* p = acquire();
    *p = std::move(v);
    return p;
  }

  /// Return an object to the pool. The pointer must have come from acquire().
  void recycle(T* p) { free_.push_back(p); }

  std::size_t slabs() const { return slabs_.size(); }
  std::size_t capacity() const { return slabs_.size() * kSlabObjects; }

 private:
  void grow() {
    slabs_.emplace_back(new T[kSlabObjects]);
    T* s = slabs_.back().get();
    free_.reserve(free_.size() + kSlabObjects);
    for (std::size_t i = kSlabObjects; i > 0; --i) free_.push_back(&s[i - 1]);
    kstats::poolSlabs.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<T*> free_;
  std::vector<std::unique_ptr<T[]>> slabs_;
};

}  // namespace lktm::sim
