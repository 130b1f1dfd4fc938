// The instrumentation spine: one hierarchical registry of name-pathed stats
// (`core.3.aborts.mem_conflict`, `dir.llc.hits`, `noc.flit_hops`) owned by the
// per-run SimContext. Components register their stats once at construction and
// keep cheap handles (Counter&); everything downstream — text reports, the
// paper figures, --stats-json artifacts, sweep aggregation — reads the
// registry instead of scraping per-component structs.
//
// Kinds:
//  * Counter      — monotonically increasing u64 (the workhorse)
//  * Histogram    — HDR-style log2 buckets split into 16 linear sub-buckets
//                   (values < 16 are exact; above that the relative error of
//                   a bucket's bound is at most 1/16), with a saturating sum
//                   and an `overflowed` flag
//
// A ratio of two stats (say flit hops per message) is not a stat of its own:
// readers divide the two counters, which every artifact carries.
//
// Lifecycle: SimContext::beginRun() clears the registry; the components of
// the next run re-register from scratch, so no value can leak between sweep
// iterations.
//
// Snapshots are deterministically ordered by path. Registering the same path
// twice throws.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lktm::stats {

class Counter {
 public:
  Counter& operator++() {
    ++v_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    v_ += n;
    return *this;
  }
  std::uint64_t value() const { return v_; }
  operator std::uint64_t() const { return v_; }  // NOLINT(google-explicit-constructor)

 private:
  std::uint64_t v_ = 0;
};

class Histogram {
 public:
  /// HDR-style bucketing: each power-of-two range [2^e, 2^(e+1)) is split
  /// into 2^kSubBits linear sub-buckets, so any recorded value is bounded by
  /// its bucket edges with relative error <= 2^-kSubBits (6.25%). Values
  /// below 2^kSubBits get a bucket each (exact). Buckets 0..15 hold the
  /// values 0..15; bucket 16*(e-3)+s (e = 4..63, s = 0..15) holds
  /// [(16+s)*2^(e-4), (17+s)*2^(e-4)).
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSubBuckets = 1u << kSubBits;  // 16
  static constexpr unsigned kBuckets = 61 * kSubBuckets;   // 976, covers all u64

  static unsigned bucketOf(std::uint64_t v);
  /// Inclusive value range of bucket `b`.
  static std::uint64_t bucketLow(unsigned b);
  static std::uint64_t bucketHigh(unsigned b);

  void record(std::uint64_t v) {
    ++buckets_[bucketOf(v)];
    ++count_;
    if (v > std::numeric_limits<std::uint64_t>::max() - sum_) {
      sum_ = std::numeric_limits<std::uint64_t>::max();
      overflowed_ = true;
    } else {
      sum_ += v;
    }
  }
  std::uint64_t count() const { return count_; }
  /// Saturates at u64 max instead of wrapping; `overflowed()` reports it.
  std::uint64_t sum() const { return sum_; }
  bool overflowed() const { return overflowed_; }
  std::uint64_t bucket(unsigned b) const { return buckets_.at(b); }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  bool overflowed_ = false;
};

enum class StatKind : std::uint8_t { Counter, Histogram };

const char* toString(StatKind k);

/// One stat's value at snapshot time. Which fields are meaningful depends on
/// `kind`; the others stay zero so entry comparison is well-defined.
struct SnapshotEntry {
  std::string path;
  StatKind kind = StatKind::Counter;
  std::uint64_t value = 0;                                  ///< Counter
  std::uint64_t count = 0, sum = 0;                         ///< Histogram
  std::vector<std::pair<unsigned, std::uint64_t>> buckets;  ///< Histogram (sparse, sorted)
  bool overflowed = false;                                  ///< Histogram sum saturated

  bool operator==(const SnapshotEntry&) const = default;
};

/// Upper bound of the histogram bucket holding the sample of rank
/// ceil(count * permille / 1000) — p50 is permille 500, p999 is 999. The
/// true sample is within kSubBits relative error below the returned value.
/// 0 when the entry is empty or not a histogram.
std::uint64_t histogramPercentile(const SnapshotEntry& e, unsigned permille);

/// A path-sorted, self-contained dump of a registry. Safe to keep after the
/// registry (or the components that registered its stats) are gone.
class StatSnapshot {
 public:
  void add(SnapshotEntry e);  ///< keeps entries sorted by path; collisions throw
  const std::vector<SnapshotEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  const SnapshotEntry* find(std::string_view path) const;
  /// Counter value at `path` (0 when absent or not a counter).
  std::uint64_t value(std::string_view path) const;

  /// Sum of all *counter* values whose path matches `pattern`, where a `*`
  /// segment matches exactly one path segment: "core.*.commits.htm" sums the
  /// htm commits of every core. Exact paths are a special case.
  std::uint64_t sumMatching(std::string_view pattern) const;

  /// Bucket-wise union of every *histogram* entry matching `pattern` (same
  /// wildcard rules as sumMatching): counts, sums (saturating) and buckets
  /// add, overflowed ORs. Path is the pattern; empty entry when none match.
  SnapshotEntry mergedHistogram(std::string_view pattern) const;

  bool operator==(const StatSnapshot&) const = default;

  static bool matches(std::string_view pattern, std::string_view path);

 private:
  std::vector<SnapshotEntry> entries_;  // sorted by path
};

class StatRegistry {
 public:
  StatRegistry() = default;
  StatRegistry(const StatRegistry&) = delete;
  StatRegistry& operator=(const StatRegistry&) = delete;

  /// Register a stat at `path`. References stay valid until clear().
  /// Registering an already-taken path throws std::logic_error.
  Counter& counter(std::string path);
  Histogram& histogram(std::string path);

  std::size_t size() const { return entries_.size(); }

  /// Drop every registration (SimContext::beginRun: the next run's components
  /// re-register from scratch).
  void clear();

  /// Copy every stat into a path-sorted snapshot.
  StatSnapshot snapshot() const;

 private:
  struct Entry {
    std::string path;
    StatKind kind = StatKind::Counter;
    std::size_t index = 0;  ///< into the kind's deque
  };

  Entry& registerPath(std::string path, StatKind kind);

  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> byPath_;
  std::deque<Counter> counters_;
  std::deque<Histogram> histograms_;
};

}  // namespace lktm::stats
