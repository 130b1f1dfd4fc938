// Determinism replay tests for the flat coherence datapath (labelled
// `coherence` in ctest). The golden strings in golden_coherence.hpp were
// recorded against the node-based std::map/std::set containers the flat
// structures replaced; byte-identical replays prove the rework preserved
// every externally observable ordering (wakeup drains, diagnostics, sharer
// walks, full-simulation cycle counts). The structural tests below fuzz each
// flat container against its reference-semantics counterpart, including
// adversarial same-bucket probe chains.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "coherence_replay.hpp"
#include "core/wakeup_table.hpp"
#include "golden_coherence.hpp"
#include "sim/core_mask.hpp"
#include "sim/flat_table.hpp"
#include "sim/rng.hpp"

namespace lktm::test {
namespace {

// ----------------------------------------------------- golden replays

TEST(CoherenceReplay, DirectoryTraceMatchesGolden) {
  EXPECT_EQ(directoryReplayTrace(), kGoldenDirectoryTrace);
}

TEST(CoherenceReplay, DirectoryTraceIsStableAcrossRuns) {
  EXPECT_EQ(directoryReplayTrace(), directoryReplayTrace());
}

TEST(CoherenceReplay, FullSimFingerprintMatchesGolden) {
  EXPECT_EQ(fullSimFingerprint(), kGoldenFullSimFingerprint);
}

// ----------------------------------------------------- banked directory

TEST(CoherenceReplay, TwoBankDirectoryTraceMatchesGolden) {
  EXPECT_EQ(directoryReplayTrace(2), kGoldenDirectoryTrace2B);
}

TEST(CoherenceReplay, TwoBankDirectoryTraceIsStableAcrossRuns) {
  EXPECT_EQ(directoryReplayTrace(2), directoryReplayTrace(2));
}

// Pure coherence traffic never crosses bank boundaries (only the HTMLock
// set/clear broadcasts do), so a workload that stays out of the fallback
// lock must produce *identical* results no matter how many banks the
// directory is split into — same commits, same aborts, same cycle count.
TEST(CoherenceReplay, BankCountInvariantForLockFreeWorkload) {
  auto fingerprint = [](unsigned banks) {
    cfg::RunConfig rc;
    rc.system = cfg::systemByName("LockillerTM");
    rc.threads = 4;
    rc.machine.numBanks = banks;
    const auto r = cfg::runSimulation(
        rc, [] { return wl::makeCounter(64, 2, 128); });
    std::ostringstream oss;
    oss << "cycles=" << r.cycles << " commits=" << r.htmCommits() << "/"
        << r.lockCommits() << "/" << r.stlCommits() << " aborts=" << r.aborts()
        << " rejects=" << r.rejectsSent() << " wakeups=" << r.wakeupsSent()
        << " msgs=" << r.messages() << " ok=" << (r.ok() ? 1 : 0);
    return oss.str();
  };
  const std::string oneBank = fingerprint(1);
  EXPECT_EQ(oneBank, fingerprint(2));
  EXPECT_EQ(oneBank, fingerprint(4));
  EXPECT_EQ(oneBank, fingerprint(32));
}

// ----------------------------------------------------- flat table vs map

TEST(FlatLineTable, MatchesMapReferenceUnderChurn) {
  sim::FlatLineTable<int> t;
  std::map<LineAddr, int> ref;
  sim::Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const LineAddr key = rng.next() % 512;  // dense key range -> heavy churn
    switch (rng.next() % 4) {
      case 0:
        t[key] = static_cast<int>(key) + step;
        ref[key] = static_cast<int>(key) + step;
        break;
      case 1: {
        auto [v, inserted] = t.tryEmplace(key);
        auto [rit, rinserted] = ref.try_emplace(key);
        ASSERT_EQ(inserted, rinserted);
        ASSERT_EQ(*v, rit->second);
        break;
      }
      case 2:
        ASSERT_EQ(t.erase(key), ref.erase(key) != 0);
        break;
      default: {
        const int* v = t.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(v != nullptr, rit != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  // The ordered walk must equal std::map iteration exactly.
  std::vector<std::pair<LineAddr, int>> walked;
  t.forEachOrdered([&](LineAddr k, int& v) { walked.emplace_back(k, v); });
  std::vector<std::pair<LineAddr, int>> expect(ref.begin(), ref.end());
  EXPECT_EQ(walked, expect);
}

TEST(FlatLineTable, AdversarialProbeCollisionChains) {
  // Handcraft keys that all hash to the same home bucket at the minimum
  // capacity, forcing maximal linear-probe chains and exercising the
  // backward-shift deletion across wrap-around.
  std::vector<LineAddr> colliders;
  for (LineAddr k = 0; colliders.size() < 12; ++k) {
    if ((sim::flat_detail::mixKey(k) & (sim::FlatLineTable<int>::kMinCapacity - 1)) == 0) {
      colliders.push_back(k);
    }
  }
  sim::FlatLineTable<int> t;
  std::map<LineAddr, int> ref;
  for (std::size_t i = 0; i < colliders.size(); ++i) {
    t[colliders[i]] = static_cast<int>(i);
    ref[colliders[i]] = static_cast<int>(i);
  }
  // Erase from the middle of the chain outwards; lookups must stay correct
  // after every single backward shift.
  const std::size_t order[] = {5, 6, 4, 7, 3, 8, 2, 9, 1, 10, 0, 11};
  for (std::size_t i : order) {
    ASSERT_TRUE(t.erase(colliders[i]));
    ref.erase(colliders[i]);
    for (const auto& [k, v] : ref) {
      const int* got = t.find(k);
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(*got, v);
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  EXPECT_TRUE(t.empty());
}

TEST(FlatLineTable, ClearKeepsSlabAndStaysUsable) {
  sim::FlatLineTable<int> t;
  for (LineAddr k = 0; k < 100; ++k) t[k] = static_cast<int>(k);
  const std::size_t cap = t.capacity();
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), cap);  // slab survives for zero-alloc reuse
  for (LineAddr k = 0; k < 100; ++k) EXPECT_FALSE(t.contains(k));
  t[7] = 70;
  EXPECT_EQ(*t.find(7), 70);
}

TEST(FlatLineSet, MatchesSetReference) {
  sim::FlatLineSet s;
  std::set<LineAddr> ref;
  sim::Rng rng(99);
  for (int step = 0; step < 10000; ++step) {
    const LineAddr key = rng.next() % 256;
    if (rng.next() % 3 == 0) {
      ASSERT_EQ(s.erase(key), ref.erase(key) != 0);
    } else {
      s.insert(key);
      ref.insert(key);
    }
    ASSERT_EQ(s.size(), ref.size());
    ASSERT_EQ(s.count(key), ref.count(key));
  }
  std::vector<LineAddr> walked;
  s.forEachOrdered([&](LineAddr k) { walked.push_back(k); });
  std::vector<LineAddr> expect(ref.begin(), ref.end());
  EXPECT_EQ(walked, expect);
}

// ----------------------------------------------------- core mask vs set

// Random insert/erase walk checked against std::set, with ids drawn from
// [0, idRange).
void coreMaskMatchesSet(std::uint64_t rngSeed, unsigned idRange) {
  sim::CoreMask m;
  std::set<CoreId> ref;
  sim::Rng rng(rngSeed);
  for (int step = 0; step < 5000; ++step) {
    const CoreId c = static_cast<CoreId>(rng.next() % idRange);
    if (rng.next() % 3 == 0) {
      m.erase(c);
      ref.erase(c);
    } else {
      m.insert(c);
      ref.insert(c);
    }
    ASSERT_EQ(m.size(), ref.size());
    ASSERT_EQ(m.count(c), ref.count(c));
    ASSERT_EQ(m.empty(), ref.empty());
  }
  // Both range-for and forEach must walk in std::set (ascending) order.
  std::vector<CoreId> ranged;
  for (CoreId c : m) ranged.push_back(c);
  std::vector<CoreId> visited;
  m.forEach([&](CoreId c) { visited.push_back(c); });
  std::vector<CoreId> expect(ref.begin(), ref.end());
  EXPECT_EQ(ranged, expect);
  EXPECT_EQ(visited, expect);
}

// Ids confined to the first word: a dense set that fills and empties often.
TEST(CoreMask, MatchesSetReference) { coreMaskMatchesSet(7, 64); }
// Ids spread over all eight words of the mask.
TEST(CoreMask, EightWordMatchesSetReference) {
  coreMaskMatchesSet(29, sim::CoreMask::kMaxCores);
}

TEST(CoreMask, WordBoundaryIds) {
  static_assert(sim::CoreMask::kMaxCores == 512);
  // Each pair straddles a word boundary; 511 is the last id of the last word.
  const std::vector<CoreId> ids = {63, 64, 127, 128, 255, 256, 511};
  sim::CoreMask m;
  for (CoreId c : ids) {
    EXPECT_EQ(m.count(c), 0u);
    m.insert(c);
    EXPECT_EQ(m.count(c), 1u);
  }
  EXPECT_EQ(m.size(), ids.size());
  std::vector<CoreId> walked;
  m.forEach([&](CoreId c) { walked.push_back(c); });
  EXPECT_EQ(walked, ids);
  std::vector<CoreId> ranged;
  for (CoreId c : m) ranged.push_back(c);
  EXPECT_EQ(ranged, ids);

  // rawWords() exposes every word: ids >= 64 must not be truncated into
  // word 0 (the old single-u64 raw() trap).
  const auto& words = m.rawWords();
  ASSERT_EQ(words.size(), 8u);
  const std::uint64_t top = std::uint64_t{1} << 63;
  EXPECT_EQ(words[0], top);                      // 63
  EXPECT_EQ(words[1], std::uint64_t{1} | top);   // 64, 127
  EXPECT_EQ(words[2], std::uint64_t{1});         // 128
  EXPECT_EQ(words[3], top);                      // 255
  EXPECT_EQ(words[4], std::uint64_t{1});         // 256
  EXPECT_EQ(words[5], std::uint64_t{0});
  EXPECT_EQ(words[6], std::uint64_t{0});
  EXPECT_EQ(words[7], top);                      // 511

  // Erasing an id in one word must not disturb its neighbours.
  m.erase(64);
  EXPECT_EQ(m.count(63), 1u);
  EXPECT_EQ(m.count(64), 0u);
  EXPECT_EQ(m.count(127), 1u);
  EXPECT_EQ(m.size(), ids.size() - 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.begin() == m.end());
}

// ----------------------------------------------------- wakeup table order

TEST(WakeupTable, DrainOrderMatchesMapOfSetsReference) {
  core::WakeupTable wt;
  std::map<LineAddr, std::set<CoreId>> ref;
  sim::Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const LineAddr line = rng.next() % 40;
    const CoreId core = static_cast<CoreId>(rng.next() % 16);
    wt.record(line, core);
    ref[line].insert(core);
  }
  std::size_t refSize = 0;
  for (const auto& [line, cores] : ref) refSize += cores.size();
  ASSERT_EQ(wt.size(), refSize);

  // Single-line drain first (the SigClear per-address path).
  const auto one = wt.drain(3);
  std::vector<CoreId> oneExpect(ref[3].begin(), ref[3].end());
  ASSERT_EQ(one.size(), oneExpect.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].line, 3u);
    EXPECT_EQ(one[i].core, oneExpect[i]);
  }
  ref.erase(3);

  // Full drain: ascending line, ascending core — the old map/set order.
  const auto all = wt.drainAll();
  std::vector<core::WakeupTable::Entry> expect;
  for (const auto& [line, cores] : ref) {
    for (CoreId c : cores) expect.push_back({line, c});
  }
  ASSERT_EQ(all.size(), expect.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].line, expect[i].line);
    EXPECT_EQ(all[i].core, expect[i].core);
  }
  EXPECT_TRUE(wt.empty());
}

}  // namespace
}  // namespace lktm::test
