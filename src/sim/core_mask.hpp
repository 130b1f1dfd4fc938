// Fixed-width bitmask over core ids, replacing std::set<CoreId> in the
// directory sharer lists, wakeup tables, and checker. Iteration is ascending
// via countr_zero, which matches std::set's order exactly, so every drain /
// fan-out that used to walk a set stays bit-deterministic.
//
// CoreMask holds kMaxCores = 512 cores in eight 64-bit words, one width for
// every build. The cap is a configuration limit, not an architectural one:
// cfg::MachineParams::validate() rejects a larger machine before any mask is
// built, and the checked() assert catches a stray id.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>

#include "sim/types.hpp"

namespace lktm::sim {

class CoreMask {
 public:
  static constexpr unsigned kWords = 8;
  static constexpr unsigned kMaxCores = kWords * 64;

  constexpr CoreMask() = default;

  void insert(CoreId c) {
    const unsigned i = checked(c);
    words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  void erase(CoreId c) {
    const unsigned i = checked(c);
    words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  void clear() { words_.fill(0); }

  /// std::set-compatible membership test: 0 or 1.
  std::size_t count(CoreId c) const {
    const unsigned i = checked(c);
    return (words_[i / 64] >> (i % 64)) & 1u;
  }
  bool contains(CoreId c) const { return count(c) != 0; }

  std::size_t size() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }
  bool empty() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Raw storage words, lowest cores first. Callers folding a mask into a
  /// hash or a fingerprint must consume every word, so no caller can
  /// silently truncate a >64-core mask to its first word.
  const std::array<std::uint64_t, kWords>& rawWords() const { return words_; }

  /// Visit members in ascending core order (== std::set<CoreId> order).
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (unsigned w = 0; w < kWords; ++w) {
      for (std::uint64_t rest = words_[w]; rest != 0; rest &= rest - 1) {
        fn(static_cast<CoreId>(w * 64 + static_cast<unsigned>(std::countr_zero(rest))));
      }
    }
  }

  /// Minimal forward iterator so range-for and set-style loops keep working.
  /// Skips empty words eagerly, so end() is simply {mask, kWords, 0}.
  class iterator {
   public:
    iterator(const CoreMask* m, unsigned word, std::uint64_t rest)
        : mask_(m), word_(word), rest_(rest) {
      advancePastEmpty();
    }
    CoreId operator*() const {
      return static_cast<CoreId>(word_ * 64 +
                                 static_cast<unsigned>(std::countr_zero(rest_)));
    }
    iterator& operator++() {
      rest_ &= rest_ - 1;
      advancePastEmpty();
      return *this;
    }
    bool operator==(const iterator& o) const {
      return word_ == o.word_ && rest_ == o.rest_;
    }
    bool operator!=(const iterator& o) const { return !(*this == o); }

   private:
    void advancePastEmpty() {
      while (rest_ == 0 && word_ < kWords) {
        ++word_;
        rest_ = word_ < kWords ? mask_->words_[word_] : 0;
      }
    }
    const CoreMask* mask_;
    unsigned word_;
    std::uint64_t rest_;
  };
  iterator begin() const { return iterator(this, 0, words_[0]); }
  iterator end() const { return iterator(this, kWords, 0); }

  bool operator==(const CoreMask& o) const { return words_ == o.words_; }

 private:
  /// Range check. On violation it reports the cap and the offending id (a
  /// bare assert cannot format runtime values) before asserting.
  static unsigned checked(CoreId c) {
#ifndef NDEBUG
    if (c < 0 || static_cast<unsigned>(c) >= kMaxCores) {
      std::fprintf(stderr, "CoreMask: core id %d out of range (kMaxCores=%u)\n", c,
                   kMaxCores);
      assert(false && "core id exceeds the CoreMask cap");
    }
#endif
    return static_cast<unsigned>(c);
  }

  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace lktm::sim
