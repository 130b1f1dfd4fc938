// Word-granular backing store for the simulated physical address space, and
// the one home of line data: the directory's inclusive LLC keeps no copy of
// its own, only which lines are resident (see "LLC residency" below).
// Sparse (a flat table of touched lines) so 8 GB of simulated DRAM costs only
// what is touched. Timing (the 100-cycle latency of Table I) is applied by
// the directory controller, not here.
#pragma once

#include <cstdint>

#include "mem/cache_array.hpp"
#include "sim/flat_table.hpp"
#include "sim/types.hpp"
#include "stats/registry.hpp"

namespace lktm::mem {

class MainMemory {
 public:
  /// Opt-in instrumentation: registers "mem.line_reads" in `reg`, one per
  /// LLC fill from DRAM (cold or warmed). The LLC never evicts, so nothing
  /// is ever written back to DRAM and there is no write counter. Workload
  /// setup and invariant checks that poke memory via the word accessors are
  /// not counted. Unattached (unit-test) instances count nothing.
  void attachStats(stats::StatRegistry& reg);

  /// Word accessors for workload initialization and final invariant checks.
  /// They see the LLC's data: a resident line's memory copy is never read
  /// again, so the two are one store.
  std::uint64_t readWord(Addr addr) const;
  void writeWord(Addr addr, std::uint64_t value);

  /// Lines with a slot: written through the word accessors, filled cold,
  /// written back, or marked resident one by one. Lines that are only
  /// inside the warmed range have none.
  std::size_t touchedLines() const { return store_.size(); }

  // --- LLC residency (the directory's unbounded, never-evicting LLC) ---

  /// True when the LLC holds `line`: inside the warmed range or filled since.
  bool inLlc(LineAddr line) const {
    if (inWarmRange(line)) return true;
    const Line* l = store_.find(line);
    return l != nullptr && l->inLlc;
  }

  /// Makes `line` resident. Returns true when it was not (a cold fill, which
  /// counts one line read).
  bool fillLlc(LineAddr line);

  /// Makes [from, to) resident, counting one line read per newly resident
  /// line. On an LLC with nothing resident yet this records the range alone:
  /// O(1), no per-line state. Otherwise the lines are filled one by one.
  void warmLlc(LineAddr from, LineAddr to);

  /// The line's current data, uncounted; absent lines read as zero. For a
  /// resident line this is the LLC's copy.
  const LineData& lineData(LineAddr line) const {
    const Line* l = store_.find(line);
    return l == nullptr ? kZeroLine : l->data;
  }

  /// An L1 writeback into the LLC: stores `data` and marks the line
  /// resident. Not a DRAM write: nothing is counted.
  void writeBackLlc(LineAddr line, const LineData& data);

  /// Visits every resident line with its data, in ascending line order.
  template <typename Fn>
  void forEachLlcLine(Fn&& fn) const {
    LineAddr next = warmFrom_;  // first warmed line not visited yet
    store_.forEachOrdered([&](LineAddr line, const Line& l) {
      for (; next < warmTo_ && next < line; ++next) fn(next, kZeroLine);
      if (inWarmRange(line)) {
        next = line + 1;
      } else if (!l.inLlc) {
        return;
      }
      fn(line, l.data);
    });
    for (; next < warmTo_; ++next) fn(next, kZeroLine);
  }

 private:
  struct Line {
    LineData data{};
    bool inLlc = false;  ///< made resident on its own: a fill or a writeback
  };

  static constexpr LineData kZeroLine{};

  bool inWarmRange(LineAddr line) const {
    return line >= warmFrom_ && line < warmTo_;
  }

  sim::FlatLineTable<Line> store_;
  LineAddr warmFrom_ = 0;  ///< warmed range [warmFrom_, warmTo_), resident
  LineAddr warmTo_ = 0;
  bool anyFilled_ = false;  ///< some slot has inLlc set
  stats::Counter* lineReads_ = nullptr;
};

}  // namespace lktm::mem
