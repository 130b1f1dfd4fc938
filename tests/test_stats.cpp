// Instrumentation-spine tests: registry semantics (paths, kinds, lifecycle),
// snapshot queries, the TxStats/ThreadBreakdown handle bundles, the versioned
// stats-JSON artifact, the trace layer, and the sweep reset-leakage
// regression (same config run twice through a shared SimContext must yield
// identical snapshots).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/artifact.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "sim/context.hpp"
#include "sim/trace.hpp"
#include "stats/breakdown.hpp"
#include "stats/json.hpp"
#include "stats/registry.hpp"
#include "stats/report.hpp"
#include "stats/tx_stats.hpp"
#include "trace_decode.hpp"
#include "workloads/micro.hpp"

namespace lktm::stats {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, CountersRegisterAndAccumulate) {
  StatRegistry reg;
  Counter& c = reg.counter("a.b.c");
  ++c;
  c += 4;
  EXPECT_EQ(c.value(), 5u);
  const StatSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("a.b.c"), nullptr);
  EXPECT_EQ(snap.find("a.b.c")->value, 5u);
  EXPECT_EQ(snap.find("a.b"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, PathCollisionThrows) {
  StatRegistry reg;
  reg.counter("dup.path");
  EXPECT_THROW(reg.counter("dup.path"), std::logic_error);
  // Collisions are by path, not by kind.
  EXPECT_THROW(reg.histogram("dup.path"), std::logic_error);
  EXPECT_THROW(reg.distribution("dup.path"), std::logic_error);
  EXPECT_THROW(reg.formula("dup.path", [] { return 0.0; }), std::logic_error);
}

TEST(Registry, SnapshotIsPathSorted) {
  StatRegistry reg;
  reg.counter("z.last") += 1;
  reg.counter("a.first") += 2;
  reg.counter("m.middle") += 3;
  const StatSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.entries()[0].path, "a.first");
  EXPECT_EQ(snap.entries()[1].path, "m.middle");
  EXPECT_EQ(snap.entries()[2].path, "z.last");
}

TEST(Registry, ClearDropsRegistrations) {
  StatRegistry reg;
  reg.counter("x") += 7;
  reg.clear();
  EXPECT_EQ(reg.snapshot().find("x"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  // The path is free again (the sweep re-registration path).
  reg.counter("x");
}

TEST(Registry, FormulaEvaluatesAtSnapshotTime) {
  StatRegistry reg;
  Counter& n = reg.counter("n");
  Counter& d = reg.counter("d");
  reg.formula("ratio", [&] {
    return d.value() == 0 ? 0.0
                          : static_cast<double>(n.value()) / static_cast<double>(d.value());
  });
  EXPECT_DOUBLE_EQ(reg.snapshot().find("ratio")->number, 0.0);
  n += 6;
  d += 4;
  EXPECT_DOUBLE_EQ(reg.snapshot().find("ratio")->number, 1.5);
}

// --------------------------------------------------------------- histogram

TEST(Histogram, BucketEdges) {
  // Values below 16 are exact; above, each power-of-two decade splits into
  // 16 linear sub-buckets (HDR style, <= 6.25% relative error).
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucketOf(v), static_cast<unsigned>(v)) << v;
  }
  EXPECT_EQ(Histogram::bucketOf(16), 16u);
  EXPECT_EQ(Histogram::bucketOf(17), 17u);  // still exact: sub-width 1
  EXPECT_EQ(Histogram::bucketOf(31), 31u);
  EXPECT_EQ(Histogram::bucketOf(32), 32u);  // [32,64) has sub-width 2
  EXPECT_EQ(Histogram::bucketOf(33), 32u);
  EXPECT_EQ(Histogram::bucketOf(34), 33u);
  EXPECT_EQ(Histogram::bucketOf(63), 47u);
  EXPECT_EQ(Histogram::bucketOf(64), 48u);
  EXPECT_EQ(Histogram::bucketOf(~std::uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(Histogram, BucketRangesRoundTrip) {
  for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLow(b)), b) << b;
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHigh(b)), b) << b;
    EXPECT_LE(Histogram::bucketLow(b), Histogram::bucketHigh(b)) << b;
    if (b > 0) {
      EXPECT_EQ(Histogram::bucketLow(b), Histogram::bucketHigh(b - 1) + 1) << b;
    }
    // The defining accuracy bound: bucket width <= 1/16 of its lower edge.
    const std::uint64_t width = Histogram::bucketHigh(b) - Histogram::bucketLow(b);
    if (Histogram::bucketLow(b) >= 16) {
      EXPECT_LE(width, Histogram::bucketLow(b) / 16) << b;
    } else {
      EXPECT_EQ(width, 0u) << b;
    }
  }
  EXPECT_EQ(Histogram::bucketHigh(Histogram::kBuckets - 1), ~std::uint64_t{0});
}

TEST(Histogram, RecordsCountSumBuckets) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_FALSE(h.overflowed());
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(5), 2u);  // values < 16 land in their own bucket
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Histogram, SumSaturatesAtBoundaryInsteadOfWrapping) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Histogram h;
  h.record(kMax - 10);
  h.record(10);  // lands exactly on the boundary: no overflow yet
  EXPECT_EQ(h.sum(), kMax);
  EXPECT_FALSE(h.overflowed());
  h.record(1);  // one past the boundary: saturate and flag, don't wrap
  EXPECT_EQ(h.sum(), kMax);
  EXPECT_TRUE(h.overflowed());
  EXPECT_EQ(h.count(), 3u);
  h.record(kMax);  // stays saturated
  EXPECT_EQ(h.sum(), kMax);
  EXPECT_TRUE(h.overflowed());
}

TEST(HistogramPercentile, SmallExactValues) {
  StatRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  const StatSnapshot snap = reg.snapshot();
  const SnapshotEntry* e = snap.find("lat");
  ASSERT_NE(e, nullptr);
  // Values < 16 sit in exact buckets, so percentiles are exact order stats:
  // rank = ceil(count * permille / 1000).
  EXPECT_EQ(histogramPercentile(*e, 500), 5u);
  EXPECT_EQ(histogramPercentile(*e, 900), 9u);
  EXPECT_EQ(histogramPercentile(*e, 990), 10u);
  EXPECT_EQ(histogramPercentile(*e, 999), 10u);
  EXPECT_EQ(histogramPercentile(*e, 1000), 10u);
}

TEST(HistogramPercentile, EmptyHistogramReadsZero) {
  StatRegistry reg;
  reg.histogram("lat");
  const StatSnapshot snap = reg.snapshot();
  EXPECT_EQ(histogramPercentile(*snap.find("lat"), 500), 0u);
  // Non-histogram entries also read 0 rather than throwing.
  reg.counter("c") += 5;
  EXPECT_EQ(histogramPercentile(*reg.snapshot().find("c"), 500), 0u);
}

// Golden cross-check: the sparse-bucket percentile walk must agree with a
// reference computation over the sorted raw samples, up to the documented
// bucket quantization (the result is the containing bucket's upper edge).
TEST(HistogramPercentile, AgreesWithReferenceSort) {
  StatRegistry reg;
  Histogram& h = reg.histogram("lat");
  std::vector<std::uint64_t> raw;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;  // xorshift64: deterministic, no <random> involved
    const std::uint64_t v = x % 100000;
    raw.push_back(v);
    h.record(v);
  }
  std::sort(raw.begin(), raw.end());
  const StatSnapshot snap = reg.snapshot();
  const SnapshotEntry* e = snap.find("lat");
  ASSERT_NE(e, nullptr);
  for (const unsigned permille : {1u, 100u, 500u, 900u, 990u, 999u, 1000u}) {
    const std::size_t rank =
        (raw.size() * permille + 999) / 1000;  // ceil, 1-based
    const std::uint64_t truth = raw[std::max<std::size_t>(rank, 1) - 1];
    const std::uint64_t got = histogramPercentile(*e, permille);
    EXPECT_EQ(got, Histogram::bucketHigh(Histogram::bucketOf(truth)))
        << "permille=" << permille;
    EXPECT_GE(got, truth);
    // <= 6.25% relative quantization error for values >= 16.
    EXPECT_LE(got - truth, truth / 16 + 1) << "permille=" << permille;
  }
}

TEST(HistogramPercentile, MergedHistogramSpansCores) {
  StatRegistry reg;
  Histogram& h0 = reg.histogram("core.0.latency.commit");
  Histogram& h1 = reg.histogram("core.1.latency.commit");
  for (std::uint64_t v = 1; v <= 5; ++v) h0.record(v);
  for (std::uint64_t v = 6; v <= 10; ++v) h1.record(v);
  reg.counter("core.0.commits.htm") += 5;  // non-histogram entries ignored
  const StatSnapshot snap = reg.snapshot();
  const SnapshotEntry merged = snap.mergedHistogram("core.*.latency.commit");
  EXPECT_EQ(merged.count, 10u);
  EXPECT_EQ(merged.sum, 55u);
  EXPECT_EQ(histogramPercentile(merged, 500), 5u);
  EXPECT_EQ(histogramPercentile(merged, 1000), 10u);
  // A pattern that matches nothing merges to an empty histogram.
  EXPECT_EQ(snap.mergedHistogram("no.*.match").count, 0u);
}

TEST(Distribution, TracksExtrema) {
  Distribution d;
  EXPECT_EQ(d.min(), 0u);  // empty: extrema read as 0
  EXPECT_EQ(d.max(), 0u);
  d.record(9);
  d.record(3);
  d.record(40);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_EQ(d.sum(), 52u);
  EXPECT_EQ(d.min(), 3u);
  EXPECT_EQ(d.max(), 40u);
}

// ---------------------------------------------------------- snapshot queries

TEST(Snapshot, SumMatchingWildcardIsOneSegment) {
  StatRegistry reg;
  reg.counter("core.0.commits.htm") += 3;
  reg.counter("core.1.commits.htm") += 4;
  reg.counter("core.0.commits.lock") += 100;
  reg.counter("core.10.commits.htm") += 5;
  const StatSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.sumMatching("core.*.commits.htm"), 12u);
  EXPECT_EQ(snap.sumMatching("core.0.commits.htm"), 3u);  // exact path
  EXPECT_EQ(snap.sumMatching("core.*.commits.*"), 112u);
  EXPECT_EQ(snap.sumMatching("core.*"), 0u);  // '*' never spans segments
  EXPECT_EQ(snap.sumMatching("nothing.*.here"), 0u);
}

// -------------------------------------------------------- handle bundles

TEST(TxStats, CommitRateCountsSpeculativeAttemptsOnly) {
  StatRegistry reg;
  TxStats c(reg, "core.0");
  c.htmCommits += 60;
  c.stlCommits += 20;
  c.lockCommits += 1000;  // irrelevant: lock transactions never abort
  c.aborts += 20;
  ASSERT_TRUE(c.commitRate().has_value());
  EXPECT_DOUBLE_EQ(*c.commitRate(), 0.8);
  EXPECT_EQ(c.totalCommits(), 1080u);
}

// An idle core made no speculative attempts; its rate is absent, not a
// perfect 1.0 (the old default inflated fig08's averages).
TEST(TxStats, CommitRateWithNoAttemptsIsAbsent) {
  StatRegistry reg;
  TxStats c(reg, "core.0");
  EXPECT_FALSE(c.commitRate().has_value());
  c.lockCommits += 7;  // lock commits are not speculative attempts either
  EXPECT_FALSE(c.commitRate().has_value());
}

TEST(TxStats, RecordAbortByCauseLandsInRegistry) {
  StatRegistry reg;
  TxStats c(reg, "core.3");
  c.recordAbort(AbortCause::Overflow);
  c.recordAbort(AbortCause::Overflow);
  c.recordAbort(AbortCause::Fault);
  EXPECT_EQ(c.aborts.value(), 3u);
  EXPECT_EQ(c.abortCount(AbortCause::Overflow), 2u);
  EXPECT_EQ(c.abortCount(AbortCause::Fault), 1u);
  EXPECT_EQ(c.abortCount(AbortCause::MemConflict), 0u);
  const StatSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("core.3.aborts.total"), 3u);
  EXPECT_EQ(snap.value("core.3.aborts.overflow"), 2u);
  EXPECT_EQ(snap.value("core.3.aborts.fault"), 1u);
}

TEST(Breakdown, AttributesSegments) {
  StatRegistry reg;
  ThreadBreakdown bd(reg, "core.0");
  bd.beginSegment(TimeCat::NonTran, 0);
  bd.beginSegment(TimeCat::WaitLock, 100);  // 100 cycles of NonTran
  bd.beginSegment(TimeCat::Lock, 150);      // 50 cycles of WaitLock
  bd.finish(400);                           // 250 cycles of Lock
  EXPECT_EQ(bd.get(TimeCat::NonTran), 100u);
  EXPECT_EQ(bd.get(TimeCat::WaitLock), 50u);
  EXPECT_EQ(bd.get(TimeCat::Lock), 250u);
  EXPECT_EQ(bd.total(), 400u);
  EXPECT_EQ(reg.snapshot().value("core.0.time.lock"), 250u);
}

TEST(Breakdown, ResolveRetargetsSpeculativeCycles) {
  StatRegistry reg;
  ThreadBreakdown bd(reg, "core.0");
  bd.beginSegment(TimeCat::NonTran, 0);
  bd.beginSegment(TimeCat::Htm, 10);  // provisional attempt
  // Attempt aborts at 70: the 60 cycles become Aborted, rollback starts.
  bd.resolveSegment(TimeCat::Aborted, 70, TimeCat::Rollback);
  bd.beginSegment(TimeCat::Htm, 95);  // 25 cycles of rollback, retry
  bd.resolveSegment(TimeCat::Htm, 155, TimeCat::NonTran);  // commit: 60 htm
  bd.finish(200);
  EXPECT_EQ(bd.get(TimeCat::Aborted), 60u);
  EXPECT_EQ(bd.get(TimeCat::Rollback), 25u);
  EXPECT_EQ(bd.get(TimeCat::Htm), 60u);
  EXPECT_EQ(bd.get(TimeCat::NonTran), 10u + 45u);
  EXPECT_EQ(bd.total(), 200u);
}

TEST(Breakdown, SwitchLockResolution) {
  StatRegistry reg;
  ThreadBreakdown bd(reg, "core.0");
  bd.beginSegment(TimeCat::Htm, 0);
  bd.resolveSegment(TimeCat::SwitchLock, 500, TimeCat::NonTran);
  bd.finish(500);
  EXPECT_EQ(bd.get(TimeCat::SwitchLock), 500u);
  EXPECT_EQ(bd.get(TimeCat::Htm), 0u);
}

// ------------------------------------------------------------------ report

TEST(Report, TableAligns) {
  Table t({"name", "value"});
  t.addRow({"a", "1"});
  t.addRow({"long-name", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Report, FormattersAreLocaleIndependent) {
  EXPECT_EQ(Table::fixed(1.2345, 2), "1.23");
  EXPECT_EQ(Table::fixed(1234.5, 1), "1234.5");  // no thousands separator, '.' point
  EXPECT_EQ(Table::pct(0.5), "50.0%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Report, BarWidthAndFill) {
  EXPECT_EQ(bar(0.0, 10), "..........");
  EXPECT_EQ(bar(1.0, 10), "##########");
  EXPECT_EQ(bar(0.5, 10), "#####.....");
  EXPECT_EQ(bar(2.0, 4), "####");   // clamped
  EXPECT_EQ(bar(-1.0, 4), "....");  // clamped
}

// ---------------------------------------------------------- stats-JSON

// Golden fixture: a hand-built snapshot must serialize to exactly this text.
// Byte-identical output is part of the lktm.stats.v1 contract (satellite:
// locale-independent, deterministic artifacts).
TEST(StatsJson, GoldenSnapshotSerialization) {
  StatRegistry reg;
  reg.counter("core.0.commits.htm") += 3;
  reg.histogram("noc.hops").record(2);
  Distribution& d = reg.distribution("dir.waitq.depth");
  d.record(1);
  d.record(4);
  reg.formula("ratio", [] { return 0.5; });

  std::ostringstream os;
  json::Writer w(os, /*pretty=*/true);
  cfg::writeSnapshotJson(w, reg.snapshot());
  const std::string expected = R"([
  {
    "path": "core.0.commits.htm",
    "kind": "counter",
    "value": 3
  },
  {
    "path": "dir.waitq.depth",
    "kind": "distribution",
    "count": 2,
    "sum": 5,
    "min": 1,
    "max": 4
  },
  {
    "path": "noc.hops",
    "kind": "histogram",
    "count": 1,
    "sum": 2,
    "buckets": [
      [
        2,
        1
      ]
    ]
  },
  {
    "path": "ratio",
    "kind": "formula",
    "value": 0.5
  }
])";
  EXPECT_EQ(os.str(), expected);
}

// Empty distributions omit min/max (0 would fake a real sample); saturated
// histograms carry the overflowed flag. Both round-trip through the parser.
TEST(StatsJson, EmptyDistributionAndOverflowedHistogram) {
  StatRegistry reg;
  reg.distribution("dir.waitq.depth");  // registered but never recorded
  Histogram& h = reg.histogram("noc.hops");
  h.record(std::numeric_limits<std::uint64_t>::max());
  h.record(1);  // saturates the sum

  std::ostringstream os;
  json::Writer w(os, /*pretty=*/true);
  cfg::writeSnapshotJson(w, reg.snapshot());
  const std::string text = os.str();
  EXPECT_EQ(text.find("\"min\""), std::string::npos);
  EXPECT_EQ(text.find("\"max\""), std::string::npos);
  EXPECT_NE(text.find("\"overflowed\": true"), std::string::npos);

  // Round-trip via the full artifact reader (the sweep-merge path).
  cfg::RunResult r;
  r.backend = "lockiller";
  r.stats = reg.snapshot();
  std::ostringstream artifact;
  cfg::writeStatsJson(artifact, r);
  const json::Value doc = json::parse(artifact.str());
  const cfg::RunResult back = cfg::runResultFromJson(doc.find("runs")->array->front());
  const SnapshotEntry* dist = back.stats.find("dir.waitq.depth");
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(dist->count, 0u);
  EXPECT_EQ(dist->min, 0u);
  const SnapshotEntry* hist = back.stats.find("noc.hops");
  ASSERT_NE(hist, nullptr);
  EXPECT_TRUE(hist->overflowed);
  EXPECT_EQ(hist->sum, std::numeric_limits<std::uint64_t>::max());
}

cfg::RunResult runCounter(sim::SimContext* ctx = nullptr) {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName("LockillerTM");
  rc.threads = 4;
  return cfg::runSimulation(
      rc, [] { return wl::makeCounter(4, 2, 64, 11); }, ctx);
}

TEST(StatsJson, ArtifactValidatesAgainstSchema) {
  const cfg::RunResult r = runCounter();
  std::ostringstream os;
  cfg::writeStatsJson(os, r);
  EXPECT_EQ(os.str().find("\"hang\""), std::string::npos);  // "status" carries it

  // The reader is the schema: it accepts the document only if every field
  // is well-typed, the stats are path-sorted, and the derived block equals
  // what the parsed stats derive.
  const std::vector<cfg::RunResult> runs = cfg::statsRunsFromJson(json::parse(os.str()));
  ASSERT_EQ(runs.size(), 1u);
  const cfg::RunResult& back = runs.front();
  EXPECT_EQ(back.system, "LockillerTM");
  EXPECT_EQ(back.backend, r.backend);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.stats, r.stats);
  // The commit-latency block mirrors the merged per-core histograms.
  const cfg::DerivedMetrics d = cfg::DerivedMetrics::of(back);
  ASSERT_TRUE(d.commitRate.has_value());
  EXPECT_EQ(d.commitRate, r.commitRate());
  EXPECT_EQ(d.latencyCount, r.totalCommits());
  EXPECT_EQ(d.p50, r.commitLatencyPercentile(500));
  EXPECT_EQ(d.p999, r.commitLatencyPercentile(999));
  EXPECT_GE(d.p999, d.p50);
  EXPECT_GT(d.p50, 0u);
}

// asU64 reads only plain unsigned integer literals; everything else is 0
// rather than a wrapped, truncated or undefined conversion of the double.
TEST(StatsJson, AsU64ReadsOnlyPlainUnsignedIntegers) {
  for (const char* text : {"-1", "-3", "1e30", "2.5", "18446744073709551616", "-0",
                           "1E2", "\"7\"", "true"}) {
    const json::Value v = json::parse(text);
    std::uint64_t out = 42;
    EXPECT_FALSE(json::exactU64(v, out)) << text;
    EXPECT_EQ(json::asU64(v), 0u) << text;
  }
  EXPECT_EQ(json::asU64(json::parse("0")), 0u);
  EXPECT_EQ(json::asU64(json::parse("18446744073709551615")),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(json::asU64(json::parse("9007199254740993")), 9007199254740993ull);
}

// ---------------------------------------------- sweep reset-leakage guard

// Running the same configuration twice through one SimContext (the sweep
// reuse path) must yield identical snapshots: beginRun() clears the registry,
// so nothing can leak from iteration to iteration.
TEST(StatsJson, NestingLimitIsAParseErrorNotACrash) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(json::parse(nested(json::kMaxParseDepth)).isArray());
  // The first bracket past the limit sits at byte kMaxParseDepth.
  for (const std::string& doc :
       {nested(json::kMaxParseDepth + 1), std::string(100'000, '[')}) {
    try {
      json::parse(doc);
      ADD_FAILURE() << "no parse error for " << doc.size() << " bytes";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "JSON parse error at byte 512: nesting deeper than 512 levels");
    }
  }
}

// Numbers follow the RFC 8259 grammar. Anything else, including a value too
// large for a double, is the parse error with its byte offset, never a
// std::stod exception and never a raw literal kept for re-emission.
TEST(StatsJson, NumbersFollowTheRfcGrammar) {
  for (const std::string text : {"0", "-0", "7", "-12", "3.25", "1e3", "1E+2", "2.5e-3",
                                 "18446744073709551615"}) {
    const json::Value v = json::parse("[" + text + "]").array->at(0);
    EXPECT_EQ(v.kind, json::Value::Kind::Number) << text;
    EXPECT_EQ(v.text, text);
    EXPECT_DOUBLE_EQ(v.number, std::stod(text)) << text;
  }
  const std::pair<std::string, std::string> bad[] = {
      {"[-]", "byte 2: expected a digit after '-'"},
      {"[1e999]", "byte 1: number out of range"},
      {"[-1e999]", "byte 1: number out of range"},
      {"[0, 1e-400]", "byte 4: number out of range"},
      {R"({"a":[1-2, 3.4.5, 7e]})", "byte 7: expected ']'"},
      {"[3.4.5]", "byte 4: expected ']'"},
      {"[7e]", "byte 3: expected an exponent digit"},
      {"[1.]", "byte 3: expected a digit after '.'"},
      {"[.5]", "byte 1: expected a value"},
      {"[+1]", "byte 1: expected a value"},
      {"[01]", "byte 2: expected ']'"},
      {"[1e+]", "byte 4: expected an exponent digit"},
      {"-", "byte 1: expected a digit after '-'"},
  };
  for (const auto& [doc, why] : bad) {
    try {
      json::parse(doc);
      ADD_FAILURE() << "parsed " << doc;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "JSON parse error at " + why) << doc;
    }
  }
}

TEST(StatReset, BackToBackRunsAreIdentical) {
  sim::SimContext ctx;
  const cfg::RunResult first = runCounter(&ctx);
  const cfg::RunResult second = runCounter(&ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.cycles, second.cycles);
  ASSERT_EQ(first.stats.size(), second.stats.size());
  for (std::size_t i = 0; i < first.stats.size(); ++i) {
    EXPECT_EQ(first.stats.entries()[i], second.stats.entries()[i])
        << first.stats.entries()[i].path;
  }
}

TEST(StatReset, FreshContextMatchesReusedContext) {
  sim::SimContext ctx;
  runCounter(&ctx);  // dirty the context
  const cfg::RunResult reused = runCounter(&ctx);
  const cfg::RunResult fresh = runCounter();
  EXPECT_EQ(fresh.stats, reused.stats);
}

// ------------------------------------------------------------------- trace

using sim::TraceCat;
using sim::TraceEvent;
using sim::TraceSink;

TEST(Trace, CategoryMaskFilters) {
  TraceSink sink(sim::traceBit(TraceCat::Txn));
  EXPECT_TRUE(sink.wants(TraceCat::Txn));
  EXPECT_FALSE(sink.wants(TraceCat::Reject));
  sink.setMask(sim::kTraceAll);
  EXPECT_TRUE(sink.wants(TraceCat::Directory));
}

TEST(Trace, NestingValidator) {
  std::vector<TraceEvent> good{
      {"txn", TraceCat::Txn, 'B', 10, 0},
      {"lock_mode", TraceCat::LockMode, 'B', 20, 0},
      {"reject_sent", TraceCat::Reject, 'i', 25, 0},
      {"lock_mode", TraceCat::LockMode, 'E', 30, 0},
      {"txn", TraceCat::Txn, 'E', 40, 0},
      {"txn", TraceCat::Txn, 'B', 15, 1},  // other lane interleaves freely
      {"txn", TraceCat::Txn, 'E', 50, 1},
  };
  std::string why;
  EXPECT_TRUE(TraceSink::nestingWellFormed(good, &why)) << why;

  std::vector<TraceEvent> crossed{
      {"txn", TraceCat::Txn, 'B', 10, 0},
      {"lock_mode", TraceCat::LockMode, 'B', 20, 0},
      {"txn", TraceCat::Txn, 'E', 30, 0},  // closes outer before inner
  };
  EXPECT_FALSE(TraceSink::nestingWellFormed(crossed, &why));
  EXPECT_NE(why.find("mismatched"), std::string::npos);

  std::vector<TraceEvent> unclosed{{"txn", TraceCat::Txn, 'B', 10, 0}};
  EXPECT_FALSE(TraceSink::nestingWellFormed(unclosed, &why));
  EXPECT_NE(why.find("unclosed"), std::string::npos);
}

// Round-trip: serialize a recorded stream to Chrome JSON, parse it back, and
// check both the JSON structure and that the span nesting survived intact.
TEST(Trace, ChromeJsonRoundTripPreservesNesting) {
  TraceSink sink;
  sink.record({"txn", TraceCat::Txn, 'B', 100, 2, {"prio", 1}});
  sink.record({"reject_received", TraceCat::Reject, 'i', 150, 2, {"line", 64}});
  sink.record({"txn", TraceCat::Txn, 'E', 200, 2, {"committed", 1}});
  sink.record({"dir_busy", TraceCat::Directory, 'i', 120, sim::kDirectoryLane});

  // Reconstruct the event stream from the JSON (skipping "M" lane metadata)
  // and re-run the nesting validator on it.
  const test::DecodedTrace decoded = test::decodeChromeTrace(sink.chromeJson());
  ASSERT_EQ(decoded.events.size(), 4u);
  EXPECT_EQ(decoded.metadata, 2u);  // lanes: core 2 + directory
  std::string why;
  EXPECT_TRUE(TraceSink::nestingWellFormed(decoded.events, &why)) << why;

  // Instants are thread-scoped, and args survive serialization.
  const json::Value doc = json::parse(sink.chromeJson());
  const json::Array& events = *doc.find("traceEvents")->array;
  for (const json::Value& e : events) {
    if (e.find("ph")->text == "i") {
      EXPECT_EQ(e.find("s")->text, "t");
    }
  }
  const json::Value& begin = events.at(decoded.metadata);
  EXPECT_DOUBLE_EQ(begin.find("args")->find("prio")->number, 1.0);
}

// A real run must produce a well-formed stream: every txn/lock_mode span
// closes, LIFO per lane.
TEST(Trace, SimulationStreamIsWellFormed) {
  TraceSink sink;
  sim::SimContext ctx;
  ctx.setTraceSink(&sink);
  cfg::RunConfig rc;
  rc.system = cfg::systemByName("LockillerTM");
  rc.threads = 4;
  const cfg::RunResult r =
      cfg::runSimulation(rc, [] { return wl::makeCounter(4, 2, 64, 11); }, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(sink.size(), 0u);
  std::string why;
  EXPECT_TRUE(TraceSink::nestingWellFormed(sink.events(), &why)) << why;
  // The counter workload commits transactions: txn spans must be present.
  bool sawTxn = false;
  for (const TraceEvent& e : sink.events()) {
    if (e.cat == TraceCat::Txn) sawTxn = true;
  }
  EXPECT_TRUE(sawTxn);
}

}  // namespace
}  // namespace lktm::stats
