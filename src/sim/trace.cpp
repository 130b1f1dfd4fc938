#include "sim/trace.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

#include "stats/json.hpp"

namespace lktm::sim {

const char* toString(TraceCat c) {
  switch (c) {
    case TraceCat::Txn: return "txn";
    case TraceCat::Reject: return "reject";
    case TraceCat::Wakeup: return "wakeup";
    case TraceCat::LockMode: return "lock_mode";
    case TraceCat::Directory: return "directory";
  }
  return "?";
}

void TraceSink::writeChromeJson(std::ostream& os) const {
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("displayTimeUnit", "ns");
  w.key("traceEvents");
  w.beginArray();

  // Lane-name metadata so Perfetto labels each row.
  std::map<std::int32_t, bool> lanes;
  for (const TraceEvent& e : events_) lanes[e.tid] = true;
  for (const auto& [tid, unused] : lanes) {
    w.beginObject();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 1);
    w.field("tid", static_cast<std::int64_t>(tid));
    w.key("args");
    w.beginObject();
    w.field("name", tid == kDirectoryLane ? std::string("directory")
                                          : "core " + std::to_string(tid));
    w.endObject();
    w.endObject();
  }

  for (const TraceEvent& e : events_) {
    w.beginObject();
    w.field("name", e.name);
    w.field("cat", toString(e.cat));
    w.field("ph", std::string(1, e.ph));
    w.field("ts", static_cast<std::uint64_t>(e.ts));
    w.field("pid", 1);
    w.field("tid", static_cast<std::int64_t>(e.tid));
    if (e.ph == 'i') w.field("s", "t");  // thread-scoped instant
    if (e.a0.key != nullptr || e.a1.key != nullptr) {
      w.key("args");
      w.beginObject();
      if (e.a0.key != nullptr) w.field(e.a0.key, e.a0.value);
      if (e.a1.key != nullptr) w.field(e.a1.key, e.a1.value);
      w.endObject();
    }
    w.endObject();
  }

  w.endArray();
  w.endObject();
}

std::string TraceSink::chromeJson() const {
  std::ostringstream os;
  writeChromeJson(os);
  return os.str();
}

bool TraceSink::writeChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  writeChromeJson(out);
  return static_cast<bool>(out);
}

bool TraceSink::nestingWellFormed(const std::vector<TraceEvent>& events,
                                  std::string* why) {
  // Per lane: 'B'/'E' must pair LIFO with matching names and monotone ts
  // within the lane, and every span opened must close.
  std::map<std::int32_t, std::vector<const TraceEvent*>> open;
  std::map<std::int32_t, Cycle> lastTs;
  for (const TraceEvent& e : events) {
    if (auto it = lastTs.find(e.tid); it != lastTs.end() && e.ts < it->second) {
      if (why != nullptr) {
        *why = "timestamps go backwards on lane " + std::to_string(e.tid);
      }
      return false;
    }
    lastTs[e.tid] = e.ts;
    if (e.ph == 'B') {
      open[e.tid].push_back(&e);
    } else if (e.ph == 'E') {
      auto& stack = open[e.tid];
      if (stack.empty()) {
        if (why != nullptr) {
          *why = std::string("'E' without matching 'B' for '") + e.name +
                 "' on lane " + std::to_string(e.tid);
        }
        return false;
      }
      if (std::string_view(stack.back()->name) != std::string_view(e.name)) {
        if (why != nullptr) {
          *why = std::string("mismatched span: open '") + stack.back()->name +
                 "', close '" + e.name + "' on lane " + std::to_string(e.tid);
        }
        return false;
      }
      stack.pop_back();
    } else if (e.ph != 'i') {
      if (why != nullptr) *why = std::string("unknown phase '") + e.ph + "'";
      return false;
    }
  }
  for (const auto& [tid, stack] : open) {
    if (!stack.empty()) {
      if (why != nullptr) {
        *why = std::string("unclosed span '") + stack.back()->name +
               "' on lane " + std::to_string(tid);
      }
      return false;
    }
  }
  return true;
}

}  // namespace lktm::sim
