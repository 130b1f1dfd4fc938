// Event tracing for the instrumentation spine, compiled into every build and
// switched at run time: instrumentation sites call the inline trace*()
// helpers below, which record every event whenever a sink is attached. With
// no sink attached each site costs one pointer test.
//
// The sink collects Chrome trace_event records ('B'/'E' duration pairs per
// core lane, 'i' instants) and serializes them as Chrome JSON, so a run dump
// opens directly in Perfetto (https://ui.perfetto.dev). Timestamps are
// simulated cycles presented in the JSON's microsecond field: 1 cycle shows
// as 1us.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/context.hpp"
#include "sim/types.hpp"

namespace lktm::sim {

/// An event's category: the Chrome event's "cat" field.
enum class TraceCat : std::uint8_t {
  Txn = 0,    ///< transaction begin/commit/abort (with cause)
  Reject,     ///< recovery-mechanism reject edges (send/receive)
  Wakeup,     ///< wait-for-wakeup edges
  LockMode,   ///< TL/STL HTMLock-mode enter/exit
  Directory,  ///< directory request lifecycle / state transitions
};

const char* toString(TraceCat c);

/// One optional argument on an event. Keys must be static-lifetime strings.
struct TraceArg {
  const char* key = nullptr;
  std::uint64_t value = 0;
};

struct TraceEvent {
  const char* name = "";  ///< static-lifetime string
  TraceCat cat = TraceCat::Txn;
  char ph = 'i';  ///< 'B' begin, 'E' end, 'i' instant
  Cycle ts = 0;
  std::int32_t tid = 0;  ///< core id; directory events use kDirectoryLane
  TraceArg a0{}, a1{};
};

/// The lane ('tid') directory events render on, below the core lanes.
inline constexpr std::int32_t kDirectoryLane = 1000;

class TraceSink {
 public:
  void record(const TraceEvent& e) { events_.push_back(e); }
  void clear() { events_.clear(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Serialize as Chrome trace_event JSON ({"traceEvents": [...]}) with lane
  /// name metadata, ready for Perfetto. Locale-independent.
  void writeChromeJson(std::ostream& os) const;
  std::string chromeJson() const;
  /// File convenience; returns false when `path` cannot be opened.
  bool writeChromeJson(const std::string& path) const;

  /// Validate that per-lane 'B'/'E' events pair up (LIFO, matching names).
  /// Used by the round-trip tests; `events` is the parsed or raw stream.
  static bool nestingWellFormed(const std::vector<TraceEvent>& events,
                                std::string* why = nullptr);

 private:
  std::vector<TraceEvent> events_;
};

/// ---- instrumentation-site helpers (one pointer test when no sink) ----

inline void traceEmit(SimContext& ctx, TraceCat cat, char ph, const char* name,
                      std::int32_t tid, TraceArg a0 = {}, TraceArg a1 = {}) {
  if (TraceSink* t = ctx.traceSink(); t != nullptr) {
    t->record(TraceEvent{name, cat, ph, ctx.now(), tid, a0, a1});
  }
}

inline void traceBegin(SimContext& ctx, TraceCat cat, const char* name,
                       std::int32_t tid, TraceArg a0 = {}, TraceArg a1 = {}) {
  traceEmit(ctx, cat, 'B', name, tid, a0, a1);
}

inline void traceEnd(SimContext& ctx, TraceCat cat, const char* name,
                     std::int32_t tid, TraceArg a0 = {}, TraceArg a1 = {}) {
  traceEmit(ctx, cat, 'E', name, tid, a0, a1);
}

inline void traceInstant(SimContext& ctx, TraceCat cat, const char* name,
                         std::int32_t tid, TraceArg a0 = {}, TraceArg a1 = {}) {
  traceEmit(ctx, cat, 'i', name, tid, a0, a1);
}

}  // namespace lktm::sim
