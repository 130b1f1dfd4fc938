#include "config/sweep.hpp"

namespace lktm::cfg {

std::uint64_t jobRunSeed(std::uint64_t baseSeed, const std::string& system,
                         const std::string& workload, unsigned threads) {
  // FNV-1a over the coordinates, finished with a splitmix64 mix so adjacent
  // cells land in unrelated parts of the stream space.
  std::uint64_t h = 0xcbf29ce484222325ull ^ baseSeed;
  auto mixStr = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator so ("ab","c") != ("a","bc")
    h *= 0x100000001b3ull;
  };
  mixStr(system);
  mixStr(workload);
  h ^= threads;
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace lktm::cfg
