#include "stats/registry.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace lktm::stats {

const char* toString(StatKind k) {
  switch (k) {
    case StatKind::Counter: return "counter";
    case StatKind::Histogram: return "histogram";
  }
  return "?";
}

unsigned Histogram::bucketOf(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<unsigned>(v);
  const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;  // MSB index, >= kSubBits
  const unsigned sub = static_cast<unsigned>((v >> (e - kSubBits)) & (kSubBuckets - 1));
  return (e - kSubBits + 1) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucketLow(unsigned b) {
  if (b < kSubBuckets) return b;
  const unsigned e = b / kSubBuckets + kSubBits - 1;
  const unsigned sub = b % kSubBuckets;
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (e - kSubBits);
}

std::uint64_t Histogram::bucketHigh(unsigned b) {
  if (b < kSubBuckets) return b;
  const unsigned e = b / kSubBuckets + kSubBits - 1;
  const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
  return bucketLow(b) + (width - 1);
}

std::uint64_t histogramPercentile(const SnapshotEntry& e, unsigned permille) {
  if (e.kind != StatKind::Histogram || e.count == 0) return 0;
  // rank = ceil(count * permille / 1000), clamped into [1, count].
  const auto prod = static_cast<unsigned __int128>(e.count) * permille;
  std::uint64_t rank = static_cast<std::uint64_t>((prod + 999) / 1000);
  if (rank == 0) rank = 1;
  if (rank > e.count) rank = e.count;
  std::uint64_t cum = 0;
  for (const auto& [b, n] : e.buckets) {
    cum += n;
    if (cum >= rank) return Histogram::bucketHigh(b);
  }
  return Histogram::bucketHigh(e.buckets.empty() ? 0 : e.buckets.back().first);
}

// ---------------------------------------------------------------------------
// StatSnapshot

void StatSnapshot::add(SnapshotEntry e) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), e.path,
      [](const SnapshotEntry& a, const std::string& p) { return a.path < p; });
  if (it != entries_.end() && it->path == e.path) {
    throw std::logic_error("StatSnapshot: duplicate path '" + e.path + "'");
  }
  entries_.insert(it, std::move(e));
}

const SnapshotEntry* StatSnapshot::find(std::string_view path) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), path,
      [](const SnapshotEntry& a, std::string_view p) { return a.path < p; });
  if (it == entries_.end() || it->path != path) return nullptr;
  return &*it;
}

std::uint64_t StatSnapshot::value(std::string_view path) const {
  const SnapshotEntry* e = find(path);
  return e != nullptr && e->kind == StatKind::Counter ? e->value : 0;
}

bool StatSnapshot::matches(std::string_view pattern, std::string_view path) {
  // Segment-wise comparison; '*' matches exactly one segment.
  std::size_t pi = 0, si = 0;
  while (true) {
    const std::size_t pd = pattern.find('.', pi);
    const std::size_t sd = path.find('.', si);
    const std::string_view pseg = pattern.substr(
        pi, pd == std::string_view::npos ? std::string_view::npos : pd - pi);
    const std::string_view sseg =
        path.substr(si, sd == std::string_view::npos ? std::string_view::npos : sd - si);
    if (pseg != "*" && pseg != sseg) return false;
    const bool pEnd = pd == std::string_view::npos;
    const bool sEnd = sd == std::string_view::npos;
    if (pEnd || sEnd) return pEnd && sEnd;
    pi = pd + 1;
    si = sd + 1;
  }
}

std::uint64_t StatSnapshot::sumMatching(std::string_view pattern) const {
  std::uint64_t total = 0;
  for (const SnapshotEntry& e : entries_) {
    if (e.kind == StatKind::Counter && matches(pattern, e.path)) total += e.value;
  }
  return total;
}

SnapshotEntry StatSnapshot::mergedHistogram(std::string_view pattern) const {
  SnapshotEntry out;
  out.path = std::string(pattern);
  out.kind = StatKind::Histogram;
  for (const SnapshotEntry& e : entries_) {
    if (e.kind != StatKind::Histogram || !matches(pattern, e.path)) continue;
    out.count += e.count;
    if (e.sum > std::numeric_limits<std::uint64_t>::max() - out.sum) {
      out.sum = std::numeric_limits<std::uint64_t>::max();
      out.overflowed = true;
    } else {
      out.sum += e.sum;
    }
    out.overflowed = out.overflowed || e.overflowed;
    out.buckets.insert(out.buckets.end(), e.buckets.begin(), e.buckets.end());
  }
  // Sort by bucket index and add up the entries that share one.
  std::sort(out.buckets.begin(), out.buckets.end());
  std::size_t n = 0;
  for (std::size_t i = 0; i < out.buckets.size(); ++i) {
    if (n != 0 && out.buckets[n - 1].first == out.buckets[i].first) {
      out.buckets[n - 1].second += out.buckets[i].second;
    } else {
      out.buckets[n++] = out.buckets[i];
    }
  }
  out.buckets.resize(n);
  return out;
}

// ---------------------------------------------------------------------------
// StatRegistry

StatRegistry::Entry& StatRegistry::registerPath(std::string path, StatKind kind) {
  if (path.empty()) throw std::logic_error("StatRegistry: empty stat path");
  const auto [it, inserted] = byPath_.emplace(path, entries_.size());
  if (!inserted) {
    throw std::logic_error("StatRegistry: path already registered: '" + path + "'");
  }
  entries_.push_back(Entry{std::move(path), kind, 0});
  return entries_.back();
}

Counter& StatRegistry::counter(std::string path) {
  Entry& e = registerPath(std::move(path), StatKind::Counter);
  e.index = counters_.size();
  counters_.emplace_back();
  return counters_.back();
}

Histogram& StatRegistry::histogram(std::string path) {
  Entry& e = registerPath(std::move(path), StatKind::Histogram);
  e.index = histograms_.size();
  histograms_.emplace_back();
  return histograms_.back();
}

void StatRegistry::clear() {
  entries_.clear();
  byPath_.clear();
  counters_.clear();
  histograms_.clear();
}

StatSnapshot StatRegistry::snapshot() const {
  std::vector<std::size_t> order(entries_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return entries_[a].path < entries_[b].path;
  });
  StatSnapshot snap;
  for (const std::size_t i : order) {
    const Entry& e = entries_[i];
    SnapshotEntry s;
    s.path = e.path;
    s.kind = e.kind;
    switch (e.kind) {
      case StatKind::Counter:
        s.value = counters_[e.index].value();
        break;
      case StatKind::Histogram: {
        const Histogram& h = histograms_[e.index];
        s.count = h.count();
        s.sum = h.sum();
        s.overflowed = h.overflowed();
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
          if (h.bucket(b) != 0) s.buckets.emplace_back(b, h.bucket(b));
        }
        break;
      }
    }
    snap.add(std::move(s));
  }
  return snap;
}

}  // namespace lktm::stats
