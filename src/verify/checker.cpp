#include "verify/checker.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/trace.hpp"

namespace lktm::verify {

std::size_t DfsOracle::pick(Cycle /*now*/, std::size_t nReady) {
  const std::size_t idx = trail_.size();
  std::size_t chosen = 0;
  if (idx < prefix_.size()) {
    chosen = prefix_[idx];
    if (chosen >= nReady) {
      // The replayed run diverged from the run that produced this prefix —
      // either the schedule file is stale or the simulation is not
      // deterministic under forced choices. Both are fatal for replay.
      throw std::logic_error("DfsOracle: prefix choice " + std::to_string(chosen) +
                             " out of range (only " + std::to_string(nReady) +
                             " events ready)");
    }
  }
  trail_.push_back(Branch{chosen, nReady});
  return chosen;
}

std::vector<std::size_t> DfsOracle::choices() const {
  std::vector<std::size_t> out;
  out.reserve(trail_.size());
  for (const Branch& b : trail_) out.push_back(b.chosen);
  return out;
}

ModelChecker::ModelChecker(ModelConfig cfg, CheckOptions opt)
    : cfg_(std::move(cfg)), opt_(opt) {}

namespace {

/// Receiver name in the coherence_replay trace style: L1 node ids equal core
/// ids; everything above is a directory bank.
std::string nodeName(noc::NodeId node, unsigned cores) {
  if (node >= 0 && static_cast<unsigned>(node) < cores) {
    std::string name = "c";
    name += std::to_string(node);
    return name;
  }
  return "dir";
}

void appendTraceLine(std::string& trace, const coh::Msg& m, noc::NodeId dst,
                     unsigned cores) {
  std::ostringstream line;
  line << nodeName(dst, cores) << " rx " << coh::toString(m.type) << " line=" << m.line
       << " from=" << m.from;
  if (m.hasData) line << " d0=" << m.data[0];
  if (m.keptCopy) line << " kept";
  if (m.rejectHint != AbortCause::None) line << " hint=" << toString(m.rejectHint);
  line << "\n";
  trace += line.str();
}

}  // namespace

ModelChecker::PathOutcome ModelChecker::runPath(const ModelConfig& cfg,
                                                DfsOracle& oracle,
                                                // lktm-lint: allow(no-unordered-iteration) -- membership test only
                                                std::unordered_set<std::uint64_t>* visited,
                                                const CheckOptions& opt,
                                                std::uint64_t* statesVisited) {
  PathOutcome out;
  ModelHarness harness(cfg);
  harness.engine().setScheduleOracle(&oracle);

  // Record the path's event trace so a counterexample dump carries the full
  // txn/coherence timeline next to the delivery schedule.
  sim::TraceSink sink;
  harness.ctx().setTraceSink(&sink);
  const auto captureTrace = [&] {
    if (!out.violations.empty()) out.traceJson = sink.chromeJson();
  };

  const SystemView view = harness.view();
  harness.registry().setSendHook(
      [&](const coh::Msg& msg, noc::NodeId src, noc::NodeId /*dst*/) {
        const bool fromL1 = src >= 0 && static_cast<unsigned>(src) < cfg.cores;
        if (msg.type == coh::MsgType::InvReject || msg.type == coh::MsgType::FwdReject ||
            msg.type == coh::MsgType::RejectResp) {
          auto v = InvariantPack::checkReject(view, msg, fromL1 ? src : kNoCore);
          if (v.has_value()) out.violations.push_back(std::move(*v));
        }
      });
  harness.registry().setDeliverHook(
      [&](const coh::Msg& msg, noc::NodeId /*src*/, noc::NodeId dst) {
        appendTraceLine(out.trace, msg, dst, cfg.cores);
      });

  harness.start();
  sim::EventQueue& q = harness.engine().queue();
  while (!q.empty()) {
    const std::size_t trailBefore = oracle.trail().size();
    try {
      if (!q.runOne()) break;
    } catch (const std::exception& e) {
      out.violations.push_back(
          Violation{"exception", std::string("schedule triggers: ") + e.what()});
      captureTrace();
      return out;
    }
    ++out.events;
    if (oracle.prefixConsumed() && oracle.trail().size() > trailBefore) {
      out.freshChoices += oracle.trail().size() - trailBefore;
    }

    for (Violation& v : InvariantPack::checkState(view)) {
      out.violations.push_back(std::move(v));
    }
    if (!out.violations.empty()) {
      captureTrace();
      return out;
    }

    if (visited != nullptr && oracle.prefixConsumed()) {
      const std::uint64_t fp = harness.fingerprint();
      if (!visited->insert(fp).second) {
        out.pruned = true;
        return out;
      }
      ++*statesVisited;
      if (visited->size() >= opt.maxStates) {
        out.truncated = true;
        return out;
      }
    }
    if (out.events >= opt.maxEventsPerPath) {
      out.truncated = true;
      return out;
    }
  }

  // Leaf: the queue drained. The protocol must be quiescent and every
  // program finished — anything else is a deadlock on this schedule.
  for (Violation& v : InvariantPack::checkQuiescent(view)) {
    out.violations.push_back(std::move(v));
  }
  if (!harness.allDone()) {
    out.violations.push_back(
        Violation{"quiescence", "event queue drained with unfinished programs (deadlock)"});
    out.deadlockDiagnostic = harness.programStatus();
  }
  captureTrace();
  return out;
}

CheckResult ModelChecker::run() {
  CheckResult result;
  // lktm-lint: allow(no-unordered-iteration) -- fingerprint membership set, never iterated
  std::unordered_set<std::uint64_t> visited;
  std::vector<std::size_t> prefix;

  while (true) {
    DfsOracle oracle(prefix);
    PathOutcome out = runPath(cfg_, oracle, &visited, opt_, &result.statesVisited);
    ++result.pathsExplored;
    result.eventsExecuted += out.events;
    result.choicePoints += out.freshChoices;
    if (out.pruned) ++result.prunedPaths;
    if (out.truncated) result.truncated = true;

    if (!out.violations.empty()) {
      if (!out.deadlockDiagnostic.empty()) {
        result.deadlockDiagnostic = out.deadlockDiagnostic;
      }
      result.violations = std::move(out.violations);
      Counterexample cex;
      cex.configName = cfg_.name;
      cex.bug = cfg_.bug;
      cex.invariant = result.violations.front().invariant;
      cex.detail = result.violations.front().detail;
      cex.schedule = oracle.choices();
      cex.trace = std::move(out.trace);
      cex.traceJson = std::move(out.traceJson);
      result.cex = std::move(cex);
      return result;
    }
    if (result.pathsExplored >= opt_.maxPaths) {
      result.truncated = true;
      return result;
    }

    // Backtrack: increment the deepest branch with an unexplored sibling.
    std::vector<DfsOracle::Branch> trail = oracle.trail();
    while (!trail.empty() && trail.back().chosen + 1 >= trail.back().arity) {
      trail.pop_back();
    }
    if (trail.empty()) return result;  // schedule tree exhausted
    prefix.clear();
    for (std::size_t i = 0; i + 1 < trail.size(); ++i) prefix.push_back(trail[i].chosen);
    prefix.push_back(trail.back().chosen + 1);
  }
}

CheckResult ModelChecker::replaySchedule(const ModelConfig& cfg,
                                         const std::vector<std::size_t>& schedule,
                                         std::uint64_t maxEvents) {
  CheckResult result;
  CheckOptions opt;
  opt.maxEventsPerPath = maxEvents;
  DfsOracle oracle(schedule);
  PathOutcome out = runPath(cfg, oracle, /*visited=*/nullptr, opt, nullptr);
  result.pathsExplored = 1;
  result.eventsExecuted = out.events;
  result.truncated = out.truncated;
  result.violations = std::move(out.violations);
  result.deadlockDiagnostic = std::move(out.deadlockDiagnostic);
  if (!result.violations.empty()) {
    Counterexample cex;
    cex.configName = cfg.name;
    cex.bug = cfg.bug;
    cex.invariant = result.violations.front().invariant;
    cex.detail = result.violations.front().detail;
    cex.schedule = oracle.choices();
    cex.trace = std::move(out.trace);
    cex.traceJson = std::move(out.traceJson);
    result.cex = std::move(cex);
  }
  return result;
}

const char* toString(coh::DirectoryController::InjectedBug bug) {
  switch (bug) {
    case coh::DirectoryController::InjectedBug::None: return "none";
    case coh::DirectoryController::InjectedBug::SwmrSkipInvalidation:
      return "swmr-skip-inv";
  }
  return "?";
}

std::optional<coh::DirectoryController::InjectedBug> bugFromString(const std::string& s) {
  if (s == "none") return coh::DirectoryController::InjectedBug::None;
  if (s == "swmr-skip-inv") {
    return coh::DirectoryController::InjectedBug::SwmrSkipInvalidation;
  }
  return std::nullopt;
}

void writeCounterexample(const std::string& path, const Counterexample& cex) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write counterexample to " + path);
  out << "lktm_check counterexample v1\n";
  out << "config " << cex.configName << "\n";
  out << "inject-bug " << toString(cex.bug) << "\n";
  out << "invariant " << cex.invariant << "\n";
  out << "detail " << cex.detail << "\n";
  out << "schedule";
  for (std::size_t c : cex.schedule) out << " " << c;
  out << "\n";
  out << "trace-begin\n" << cex.trace << "trace-end\n";
  if (!cex.traceJson.empty()) {
    out << "trace-events-begin\n" << cex.traceJson;
    if (cex.traceJson.back() != '\n') out << "\n";
    out << "trace-events-end\n";
  }
}

std::optional<Counterexample> readCounterexample(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "lktm_check counterexample v1") {
    return std::nullopt;
  }
  Counterexample cex;
  bool inTrace = false;
  bool inTraceJson = false;
  while (std::getline(in, line)) {
    if (inTrace) {
      if (line == "trace-end") {
        inTrace = false;
        continue;
      }
      cex.trace += line + "\n";
      continue;
    }
    if (inTraceJson) {
      if (line == "trace-events-end") {
        inTraceJson = false;
        continue;
      }
      cex.traceJson += line + "\n";
      continue;
    }
    if (line == "trace-begin") {
      inTrace = true;
      continue;
    }
    if (line == "trace-events-begin") {
      inTraceJson = true;
      continue;
    }
    std::istringstream iss(line);
    std::string key;
    iss >> key;
    if (key == "config") {
      iss >> cex.configName;
    } else if (key == "inject-bug") {
      std::string b;
      iss >> b;
      const auto bug = bugFromString(b);
      if (!bug.has_value()) return std::nullopt;
      cex.bug = *bug;
    } else if (key == "invariant") {
      iss >> cex.invariant;
    } else if (key == "detail") {
      std::getline(iss, cex.detail);
      if (!cex.detail.empty() && cex.detail.front() == ' ') cex.detail.erase(0, 1);
    } else if (key == "schedule") {
      std::size_t c = 0;
      while (iss >> c) cex.schedule.push_back(c);
    }
  }
  return cex;
}

}  // namespace lktm::verify
