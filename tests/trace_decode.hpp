// Decode a Chrome trace_event JSON document (TraceSink::chromeJson) back into
// TraceEvents, so tests can rerun TraceSink::nestingWellFormed on what a
// producer actually wrote.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "stats/json.hpp"

namespace lktm::test {

struct DecodedTrace {
  std::vector<sim::TraceEvent> events;  ///< in file order, lane metadata skipped
  unsigned metadata = 0;                ///< number of skipped 'M' records
  std::deque<std::string> names;        ///< storage behind each event's name
};

/// Throws std::runtime_error when `text` is not JSON or lacks traceEvents.
inline DecodedTrace decodeChromeTrace(const std::string& text) {
  namespace json = stats::json;
  const json::Value doc = json::parse(text);
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->isArray()) {
    throw std::runtime_error("trace has no traceEvents array");
  }
  DecodedTrace out;
  for (const json::Value& e : *events->array) {
    const std::string ph = e.find("ph")->text;
    if (ph == "M") {
      ++out.metadata;
      continue;
    }
    sim::TraceEvent ev;
    ev.name = out.names.emplace_back(e.find("name")->text).c_str();
    ev.ph = ph.at(0);
    ev.ts = static_cast<Cycle>(e.find("ts")->number);
    ev.tid = static_cast<std::int32_t>(e.find("tid")->number);
    out.events.push_back(ev);
  }
  return out;
}

}  // namespace lktm::test
