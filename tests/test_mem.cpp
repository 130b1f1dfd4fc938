#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "mem/cache_array.hpp"
#include "mem/main_memory.hpp"
#include "mem/mshr.hpp"
#include "mem/signature.hpp"
#include "sim/context.hpp"
#include "sim/rng.hpp"

namespace lktm::mem {
namespace {

// ----------------------------------------------------------- cache array

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(CacheGeometryTest, SetCountIsSizeOverLineOverAssoc) {
  const auto [size, assoc] = GetParam();
  CacheArray c({size, assoc});
  EXPECT_EQ(c.numSets(), size / kLineBytes / assoc);
  EXPECT_EQ(c.assoc(), assoc);
}

INSTANTIATE_TEST_SUITE_P(
    TableIConfigs, CacheGeometryTest,
    ::testing::Values(std::make_tuple(8u * 1024, 4u),     // Fig 13 small
                      std::make_tuple(32u * 1024, 4u),    // Table I
                      std::make_tuple(128u * 1024, 4u),   // Fig 13 large
                      std::make_tuple(64u * 1024, 8u),
                      std::make_tuple(16u * 1024, 2u)));

TEST(CacheArray, RejectsNonPow2Sets) {
  EXPECT_THROW(CacheArray({24 * 1024, 4}), std::invalid_argument);
  EXPECT_THROW(CacheArray({0, 4}), std::invalid_argument);
}

TEST(CacheArray, InstallAndFind) {
  CacheArray c({8 * 1024, 4});
  LineData d{};
  d[3] = 77;
  auto* way = c.invalidWay(100);
  ASSERT_NE(way, nullptr);
  c.install(*way, 100, MesiState::E, d);
  auto* e = c.find(100);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, MesiState::E);
  EXPECT_EQ(e->data[3], 77u);
  EXPECT_EQ(c.find(101), nullptr);
}

TEST(CacheArray, SetMappingIsModulo) {
  CacheArray c({8 * 1024, 4});  // 32 sets
  EXPECT_EQ(c.setOf(0), c.setOf(32));
  EXPECT_NE(c.setOf(0), c.setOf(1));
}

TEST(CacheArray, LruPicksOldest) {
  CacheArray c({8 * 1024, 4});  // 32 sets
  // Fill one set with 4 lines mapping to set 0: lines 0,32,64,96.
  for (LineAddr l : {0u, 32u, 64u, 96u}) {
    auto* w = c.invalidWay(l);
    ASSERT_NE(w, nullptr);
    c.install(*w, l, MesiState::S, {});
  }
  EXPECT_EQ(c.invalidWay(128), nullptr);  // set full
  // Touch 0 so 32 becomes LRU.
  c.touch(*c.find(0));
  auto* victim = c.lruWay(128, [](const CacheEntry&) { return true; });
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->line, 32u);
}

TEST(CacheArray, LruRespectsPredicate) {
  CacheArray c({8 * 1024, 4});
  for (LineAddr l : {0u, 32u, 64u, 96u}) {
    auto* w = c.invalidWay(l);
    c.install(*w, l, MesiState::S, {});
  }
  c.find(0)->txRead = true;
  c.find(32)->txRead = true;
  auto* victim = c.lruWay(128, [](const CacheEntry& e) { return !e.transactional(); });
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->line, 64u);
  // All transactional: no victim.
  c.find(64)->txWrite = true;
  c.find(96)->txRead = true;
  EXPECT_EQ(c.lruWay(128, [](const CacheEntry& e) { return !e.transactional(); }),
            nullptr);
}

TEST(CacheArray, InvalidateClearsFlags) {
  CacheEntry e;
  e.state = MesiState::M;
  e.dirty = e.txRead = e.txWrite = true;
  e.invalidate();
  EXPECT_FALSE(e.valid());
  EXPECT_FALSE(e.dirty);
  EXPECT_FALSE(e.transactional());
}

TEST(CacheArray, ForEachValidAndCountIf) {
  CacheArray c({8 * 1024, 4});
  for (LineAddr l = 0; l < 10; ++l) {
    auto* w = c.invalidWay(l);
    c.install(*w, l, MesiState::S, {});
  }
  c.find(3)->txRead = true;
  c.find(7)->txWrite = true;
  EXPECT_EQ(c.countIf([](const CacheEntry& e) { return e.transactional(); }), 2u);
  unsigned n = 0;
  c.forEachValid([&](CacheEntry&) { ++n; });
  EXPECT_EQ(n, 10u);
}

// ------------------------------------------------------------------ MSHR

TEST(CacheArray, WaysSpansOneSetWithoutAllocation) {
  CacheArray c({.sizeBytes = 4 * 1024, .assoc = 4});
  auto span = c.ways(3);
  EXPECT_EQ(span.size(), 4u);
  for (CacheEntry& e : span) EXPECT_FALSE(e.valid());
  // The span aliases the backing array: an install is visible through it.
  LineData d{};
  d[0] = 77;
  c.install(span[1], 3, MesiState::E, d);
  EXPECT_EQ(c.find(3), &span[1]);
  // Same set, same storage; different set, different storage.
  EXPECT_EQ(c.ways(3 + 16 * c.numSets()).begin(), span.begin());
  EXPECT_NE(c.ways(4).begin(), span.begin());
}

TEST(Mshr, AllocateFindRelease) {
  MshrFile m(2);
  auto& e = m.allocate(5);
  e.isWrite = true;
  EXPECT_EQ(m.find(5), &e);
  EXPECT_EQ(m.find(6), nullptr);
  m.release(5);
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(Mshr, DoubleAllocateThrows) {
  MshrFile m(4);
  m.allocate(5);
  EXPECT_THROW(m.allocate(5), std::runtime_error);
}

TEST(Mshr, CapacityEnforced) {
  MshrFile m(2);
  m.allocate(1);
  m.allocate(2);
  EXPECT_TRUE(m.full());
  EXPECT_THROW(m.allocate(3), std::runtime_error);
}

TEST(Mshr, ForEachDeterministicOrder) {
  MshrFile m(8);
  m.allocate(30);
  m.allocate(10);
  m.allocate(20);
  std::vector<LineAddr> lines;
  m.forEach([&](MshrEntry& e) { lines.push_back(e.line); });
  EXPECT_EQ(lines, (std::vector<LineAddr>{10, 20, 30}));
}

// ------------------------------------------------------------- signature

TEST(Signature, NeverFalseNegative) {
  sim::Rng rng(77);
  BloomSignature sig(1024, 4);
  std::set<LineAddr> inserted;
  for (int i = 0; i < 300; ++i) {
    const LineAddr l = rng.next();
    sig.insert(l);
    inserted.insert(l);
  }
  for (LineAddr l : inserted) EXPECT_TRUE(sig.mayContain(l));
}

TEST(Signature, EmptyContainsNothing) {
  BloomSignature sig(512, 2);
  EXPECT_TRUE(sig.empty());
  EXPECT_FALSE(sig.mayContain(0));
  EXPECT_FALSE(sig.mayContain(12345));
}

TEST(Signature, ClearResets) {
  BloomSignature sig(512, 2);
  sig.insert(9);
  EXPECT_TRUE(sig.mayContain(9));
  sig.clear();
  EXPECT_TRUE(sig.empty());
  EXPECT_FALSE(sig.mayContain(9));
  EXPECT_EQ(sig.population(), 0u);
}

TEST(Signature, PopulationCountsDistinctBits) {
  BloomSignature sig(512, 4);
  sig.insert(42);
  const std::size_t once = sig.population();
  EXPECT_GT(once, 0u);
  EXPECT_LE(once, 4u);  // k hashes can set at most k bits
  // Re-inserting the same line sets no new bits.
  sig.insert(42);
  EXPECT_EQ(sig.population(), once);
  EXPECT_FALSE(sig.empty());
  // A second line adds at most k more distinct bits.
  sig.insert(43);
  EXPECT_LE(sig.population(), once + 4u);
  EXPECT_GE(sig.population(), once);
  // Density (and hence the FP estimate) tracks distinct bits, not inserts.
  EXPECT_DOUBLE_EQ(sig.falsePositiveRate(),
                   std::pow(static_cast<double>(sig.population()) / 512.0, 4.0));
}

class SignatureFpTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, unsigned>> {};

TEST_P(SignatureFpTest, FalsePositiveRateBounded) {
  const auto [bits, hashes, population] = GetParam();
  sim::Rng rng(123);
  BloomSignature sig(bits, hashes);
  for (unsigned i = 0; i < population; ++i) sig.insert(rng.next());
  unsigned fp = 0;
  const unsigned probes = 4000;
  for (unsigned i = 0; i < probes; ++i) fp += sig.mayContain(rng.next() | (1ull << 63));
  const double measured = static_cast<double>(fp) / probes;
  // Within 3x of the analytic estimate plus small absolute slack.
  EXPECT_LE(measured, sig.falsePositiveRate() * 3.0 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SignatureFpTest,
                         ::testing::Values(std::make_tuple(2048u, 4u, 64u),
                                           std::make_tuple(2048u, 4u, 256u),
                                           std::make_tuple(1024u, 2u, 128u),
                                           std::make_tuple(4096u, 4u, 512u)));

TEST(Signature, RejectsBadGeometry) {
  EXPECT_THROW(BloomSignature(1000, 4), std::invalid_argument);
  EXPECT_THROW(BloomSignature(1024, 0), std::invalid_argument);
}

// ------------------------------------------------------------ main memory

TEST(MainMemory, SparseZeroDefault) {
  MainMemory m;
  EXPECT_EQ(m.readWord(0x5000), 0u);
  EXPECT_EQ(m.lineData(3), LineData{});
  EXPECT_FALSE(m.inLlc(3));
  EXPECT_EQ(m.touchedLines(), 0u);
}

TEST(MainMemory, WordReadWrite) {
  MainMemory m;
  m.writeWord(0x1008, 99);
  EXPECT_EQ(m.readWord(0x1008), 99u);
  EXPECT_EQ(m.readWord(0x1000), 0u);  // same line, other word
  EXPECT_EQ(m.touchedLines(), 1u);
}

TEST(MainMemory, LineReadWrite) {
  MainMemory m;
  LineData d{};
  d[0] = 1;
  d[7] = 8;
  m.writeBackLlc(4, d);
  EXPECT_EQ(m.lineData(4), d);
  EXPECT_EQ(m.readWord(byteOf(4) + 7 * 8), 8u);
  EXPECT_TRUE(m.inLlc(4));
}

TEST(MainMemory, ColdFillCountsOneLineReadAndKeepsTheData) {
  sim::SimContext ctx;
  MainMemory m;
  m.attachStats(ctx.stats());
  m.writeWord(byteOf(9), 42);
  EXPECT_FALSE(m.inLlc(9));
  EXPECT_TRUE(m.fillLlc(9));
  EXPECT_FALSE(m.fillLlc(9));  // already resident
  EXPECT_TRUE(m.inLlc(9));
  EXPECT_EQ(m.lineData(9)[0], 42u);
  EXPECT_EQ(m.touchedLines(), 1u);
  EXPECT_EQ(ctx.stats().snapshot().value("mem.line_reads"), 1u);
}

TEST(MainMemory, LaterWarmUpFillsOnlyTheLinesNotResident) {
  sim::SimContext ctx;
  MainMemory m;
  m.attachStats(ctx.stats());
  m.warmLlc(10, 20);
  m.fillLlc(30);
  m.warmLlc(15, 35);  // LLC not empty: line by line
  for (LineAddr l = 10; l < 35; ++l) EXPECT_TRUE(m.inLlc(l)) << l;
  EXPECT_FALSE(m.inLlc(9));
  EXPECT_FALSE(m.inLlc(35));
  // 10 warmed + 1 cold fill + the 14 lines of [20, 35) other than 30.
  EXPECT_EQ(ctx.stats().snapshot().value("mem.line_reads"), 25u);
  EXPECT_EQ(m.touchedLines(), 15u);  // one slot per line filled one by one
}

TEST(MainMemory, LlcWalkMergesTheWarmedRangeWithFilledLinesInOrder) {
  MainMemory m;
  m.writeWord(byteOf(3), 1);   // in memory, not resident
  m.writeWord(byteOf(11), 7);  // inside the range: resident with its data
  m.warmLlc(10, 13);
  m.fillLlc(2);
  m.fillLlc(20);
  std::vector<std::pair<LineAddr, std::uint64_t>> seen;
  m.forEachLlcLine([&](LineAddr line, const LineData& d) { seen.emplace_back(line, d[0]); });
  const std::vector<std::pair<LineAddr, std::uint64_t>> want = {
      {2, 0}, {10, 0}, {11, 7}, {12, 0}, {20, 0}};
  EXPECT_EQ(seen, want);
}

TEST(Types, AddressHelpers) {
  EXPECT_EQ(lineOf(0x1000), 0x40u);
  EXPECT_EQ(byteOf(0x40), 0x1000u);
  EXPECT_EQ(wordOf(0x1008), 1u);
  EXPECT_EQ(wordOf(0x1038), 7u);
  EXPECT_EQ(kWordsPerLine, 8u);
}

}  // namespace
}  // namespace lktm::mem
