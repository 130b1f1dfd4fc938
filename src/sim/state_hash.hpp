// Order-sensitive 64-bit state hasher for the protocol model checker's
// canonical fingerprints. Components fold their state into it word by word
// via hashState() hooks; verify::ModelHarness::fingerprint combines the
// per-component digests. The mix is splitmix64 applied per word, which
// avalanches every input bit across the accumulator — adjacent protocol
// states (one flipped MSHR flag, one different sharer) land in unrelated
// fingerprints.
#pragma once

#include <cstdint>

namespace lktm::sim {

class StateHasher {
 public:
  void put(std::uint64_t v) {
    h_ += (v + 0x9e3779b97f4a7c15ull);
    h_ = mix(h_);
    ++words_;
  }

  void putBool(bool b) { put(b ? 1 : 0); }

  /// Tagged section marker, so "empty table A then one entry in B" never
  /// collides with "one entry in A then empty B".
  void section(std::uint64_t tag) { put(0xa5a5a5a5'00000000ull | tag); }

  std::uint64_t digest() const { return mix(h_ ^ words_); }
  std::uint64_t words() const { return words_; }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t h_ = 0x6c6b746d'76657269ull;  // "lktmveri"
  std::uint64_t words_ = 0;
};

}  // namespace lktm::sim
