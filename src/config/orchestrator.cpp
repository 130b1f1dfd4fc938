#include "config/orchestrator.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "config/artifact.hpp"
#include "config/systems.hpp"
#include "stats/json.hpp"
#include "workloads/db_traffic.hpp"
#include "workloads/micro.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {

namespace {

namespace fs = std::filesystem;
using stats::json::Value;

// Wall clock for the operator-facing progress/ETA line only; job scheduling,
// seeds and artifacts are pure functions of the manifest.
// lktm-lint: allow(no-wall-clock) -- progress/ETA display only
using WallClock = std::chrono::steady_clock;

/// Diagnostic prefix marking a TransientJobError capture; isTransientFailure
/// keys on it so scripted runners returning (not throwing) a transient
/// failure classify identically.
constexpr const char* kTransientPrefix = "transient: ";

[[noreturn]] void badManifest(const std::string& what) {
  throw std::runtime_error("malformed manifest: " + what);
}

const Value& needField(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr) badManifest(std::string("missing \"") + key + "\"");
  return *v;
}

/// The Failed/Hang/Timeout result of a job that produced no run of its own
/// (a crash, or a skipped job in a resumed manifest), keyed by the spec.
RunResult unrunResult(const JobSpec& spec, RunStatus status, std::string diagnostic) {
  RunResult r;
  r.system = spec.system;
  r.workload = spec.workload;
  r.machine = spec.machine;
  r.threads = spec.threads;
  r.seed = jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  r.status = status;
  r.diagnostic = std::move(diagnostic);
  return r;
}

/// The one RunConfig builder behind runSpec and gridRunner.
RunResult simulateJob(const JobSpec& spec, const OrchestratorOptions& opts,
                      const MachineParams& machine, const SystemSpec& system,
                      sim::SimContext& ctx) {
  RunConfig cfg;
  cfg.machine = machine;
  if (opts.jobCycleBudget > 0) cfg.machine.maxCycles = opts.jobCycleBudget;
  cfg.system = system;
  cfg.threads = spec.threads;
  cfg.rngSeed = jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  cfg.wallBudgetSeconds = opts.jobWallBudgetSeconds;
  RunResult r = runSimulation(
      cfg, [&] { return makeJobWorkload(spec.workload, spec.seed); }, &ctx);
  r.workload = spec.workload;
  return r;
}

}  // namespace

std::string jobFileStem(const JobSpec& spec) {
  const std::string id = spec.id();
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    out += keep ? c : '_';
  }
  return out;
}

const char* toString(JobState s) {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Ok: return "ok";
    case JobState::Failed: return "failed";
    case JobState::Hang: return "hang";
    case JobState::Timeout: return "timeout";
  }
  return "?";
}

bool jobStateFromString(const std::string& name, JobState& out) {
  for (const JobState s : {JobState::Pending, JobState::Running, JobState::Ok,
                           JobState::Failed, JobState::Hang, JobState::Timeout}) {
    if (name == toString(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

JobState jobStateOf(const RunResult& r) {
  switch (r.status) {
    case RunStatus::Hang: return JobState::Hang;
    case RunStatus::Timeout: return JobState::Timeout;
    case RunStatus::Failed: return JobState::Failed;
    case RunStatus::Ok: break;
  }
  // Invariant/coherence violations fail the job even though the simulation
  // itself ran to completion.
  return r.violations.empty() ? JobState::Ok : JobState::Failed;
}

std::string JobSpec::id() const {
  return system + "/" + workload + "/" + machine + "@" + std::to_string(threads) +
         "#" + std::to_string(seed);
}

JobRecord* SweepManifest::find(const std::string& id) {
  for (JobRecord& j : jobs) {
    if (j.spec.id() == id) return &j;
  }
  return nullptr;
}

std::size_t SweepManifest::countIn(JobState s) const {
  std::size_t n = 0;
  for (const JobRecord& j : jobs) n += (j.state == s) ? 1 : 0;
  return n;
}

bool SweepManifest::complete() const {
  for (const JobRecord& j : jobs) {
    if (j.state == JobState::Pending || j.state == JobState::Running) return false;
  }
  return true;
}

bool SweepManifest::allOk() const {
  for (const JobRecord& j : jobs) {
    if (j.state != JobState::Ok) return false;
  }
  return true;
}

SweepManifest SweepManifest::fromJson(const std::string& text) {
  const Value doc = stats::json::parse(text);
  const Value* schema = doc.find("schema");
  if (schema == nullptr || schema->text != kManifestSchema) {
    badManifest(std::string("schema is not ") + kManifestSchema);
  }
  SweepManifest m;
  m.artifactDir = needField(doc, "artifact_dir").text;
  m.shards = stats::json::asU64(needField(doc, "shards"));
  if (m.shards == 0) badManifest("shards must be >= 1");
  const Value& jobs = needField(doc, "jobs");
  if (!jobs.isArray()) badManifest("jobs is not an array");
  std::vector<std::string> seen;
  for (const Value& e : *jobs.array) {
    if (!e.isObject()) badManifest("job entry is not an object");
    JobRecord j;
    j.spec.system = needField(e, "system").text;
    j.spec.workload = needField(e, "workload").text;
    j.spec.machine = needField(e, "machine").text;
    j.spec.threads = static_cast<unsigned>(stats::json::asU64(needField(e, "threads")));
    j.spec.seed = stats::json::asU64(needField(e, "seed"));
    if (!jobStateFromString(needField(e, "state").text, j.state)) {
      badManifest("unknown job state \"" + needField(e, "state").text + "\"");
    }
    j.attempts = static_cast<unsigned>(stats::json::asU64(needField(e, "attempts")));
    j.diagnostic = needField(e, "diagnostic").text;
    j.artifact = needField(e, "artifact").text;
    j.wallSeconds = needField(e, "wall_seconds").number;
    j.cycles = stats::json::asU64(needField(e, "cycles"));
    const std::string id = j.spec.id();
    for (const std::string& s : seen) {
      if (s == id) badManifest("duplicate job id " + id);
    }
    seen.push_back(id);
    m.jobs.push_back(std::move(j));
  }
  return m;
}

SweepManifest SweepManifest::load(const std::string& path) {
  return fromJson(readFile(path));
}

std::string SweepManifest::toJson() const {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kManifestSchema);
  w.field("artifact_dir", artifactDir);
  w.field("shards", shards);
  w.key("jobs");
  w.beginArray();
  for (const JobRecord& j : jobs) {
    w.beginObject();
    w.field("id", j.spec.id());
    w.field("system", j.spec.system);
    w.field("workload", j.spec.workload);
    w.field("machine", j.spec.machine);
    w.field("threads", j.spec.threads);
    w.field("seed", j.spec.seed);
    w.field("state", toString(j.state));
    w.field("attempts", j.attempts);
    w.field("diagnostic", j.diagnostic);
    w.field("artifact", j.artifact);
    w.field("wall_seconds", j.wallSeconds);
    w.field("cycles", j.cycles);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return os.str();
}

bool SweepManifest::save(const std::string& path) const {
  return writeFileAtomic(path, toJson());
}

std::unique_ptr<wl::Workload> makeJobWorkload(const std::string& name,
                                              std::uint64_t seed) {
  if (name == "counter") return wl::makeCounter(4, 2, 256, seed);
  if (name == "bank") return wl::makeBank(64, 480, seed);
  if (name == "linkedlist") return wl::makeLinkedList(128, 6, 240, seed);
  if (wl::isDbWorkloadName(name)) return wl::makeDbWorkload(name, seed);
  return wl::makeStamp(name, seed);
}

RunResult runSpec(const JobSpec& spec, const OrchestratorOptions& opts,
                  sim::SimContext& ctx) {
  return simulateJob(spec, opts, machineByName(spec.machine),
                     systemByName(spec.system), ctx);
}

JobRunner gridRunner(const MachineParams& machine, const std::vector<SystemSpec>& systems) {
  return [machine, systems](const JobSpec& spec, const OrchestratorOptions& opts,
                            sim::SimContext& ctx) {
    for (const SystemSpec& s : systems) {
      if (s.name == spec.system) return simulateJob(spec, opts, machine, s, ctx);
    }
    throw std::invalid_argument("system " + spec.system + " is not in the grid");
  };
}

bool isTransientFailure(const RunResult& r) {
  if (r.status == RunStatus::Timeout) {
    // Wall-clock expiry depends on host load; a cycle-budget timeout is a
    // property of the simulation and would reproduce exactly.
    return r.diagnostic.find("wall-clock") != std::string::npos;
  }
  if (r.status == RunStatus::Failed) {
    return r.diagnostic.compare(0, std::char_traits<char>::length(kTransientPrefix),
                                kTransientPrefix) == 0;
  }
  return false;
}

namespace detail {

RunResult attemptJobOnce(const JobSpec& spec, const OrchestratorOptions& opts,
                         const JobRunner& run, sim::SimContext& ctx) {
  try {
    return run(spec, opts, ctx);
  } catch (const TransientJobError& e) {
    return unrunResult(spec, RunStatus::Failed, std::string(kTransientPrefix) + e.what());
  } catch (const std::exception& e) {
    return unrunResult(spec, RunStatus::Failed, std::string("exception: ") + e.what());
  } catch (...) {
    return unrunResult(spec, RunStatus::Failed,
                       "non-standard exception (not derived from std::exception)");
  }
}

OrchestratorReport executeJobs(SweepManifest& manifest, const OrchestratorOptions& opts,
                               const JobRunner& runner, const ClaimSource& source,
                               std::vector<RunResult>* results) {
  const JobRunner run = runner ? runner : JobRunner(&runSpec);
  const unsigned maxAttempts = std::max(1u, opts.maxAttempts);
  OrchestratorReport report;
  if (!manifest.artifactDir.empty()) {
    std::error_code ec;
    fs::create_directories(manifest.artifactDir, ec);
  }

  std::mutex mu;  // guards manifest, report, the source's state and progress
  std::size_t started = 0;
  const auto t0 = WallClock::now();

  auto claim = [&]() -> std::ptrdiff_t {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (opts.maxJobs != 0 && started >= opts.maxJobs) return kNoMoreJobs;
        const std::ptrdiff_t i = source.claim();
        if (i != kPollAgain) {
          if (i >= 0) ++started;
          return i;
        }
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(source.pollSeconds));
    }
  };

  auto runOne = [&](std::size_t i, sim::SimContext& ctx) {
    const JobSpec spec = manifest.jobs[i].spec;
    RunResult r;
    for (;;) {
      unsigned attempt = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        attempt = ++manifest.jobs[i].attempts;
        if (source.attemptStarted) source.attemptStarted(i);
      }
      r = attemptJobOnce(spec, opts, run, ctx);
      if (jobStateOf(r) == JobState::Ok || !isTransientFailure(r) ||
          attempt >= maxAttempts) {
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++report.retried;
        if (opts.progress != nullptr) {
          *opts.progress << "retry " << spec.id() << " (attempt " << (attempt + 1)
                         << "/" << maxAttempts << "): " << r.diagnostic << "\n";
        }
      }
      if (opts.retryBackoffSeconds > 0.0) {
        // A claim-inherited attempt count can be large; clamp the doubling so
        // the shift stays defined and the sleep finite.
        const unsigned exp = std::min(attempt - 1, 20u);
        std::this_thread::sleep_for(std::chrono::duration<double>(
            opts.retryBackoffSeconds * static_cast<double>(1u << exp)));
      }
    }

    JobState state = jobStateOf(r);
    std::string artifactPath;
    if (state == JobState::Ok && !manifest.artifactDir.empty()) {
      artifactPath =
          (fs::path(manifest.artifactDir) / (jobFileStem(spec) + ".json")).string();
      std::ostringstream doc;
      writeStatsJson(doc, r);
      if (!writeFileAtomic(artifactPath, doc.str(), source.writer)) {
        state = JobState::Failed;
        r.status = RunStatus::Failed;
        r.diagnostic = "cannot write artifact " + artifactPath;
        artifactPath.clear();
      }
    }

    std::lock_guard<std::mutex> lock(mu);
    JobRecord& j = manifest.jobs[i];
    j.state = state;
    j.artifact = artifactPath;
    j.wallSeconds = r.wallSeconds;
    j.cycles = r.cycles;
    j.diagnostic = state == JobState::Ok ? "" : r.diagnostic;
    if (state == JobState::Failed && j.diagnostic.empty() && !r.violations.empty()) {
      j.diagnostic = r.violations.front();
    }
    if (results != nullptr) (*results)[i] = std::move(r);
    ++report.ran;
    source.finished(i);
    if (opts.progress != nullptr) {
      const std::size_t total = manifest.jobs.size();
      const std::size_t done = source.doneCount();
      std::size_t left = total > done ? total - done : 0;
      if (opts.maxJobs != 0) left = std::min(left, opts.maxJobs - report.ran);
      const double elapsed =
          std::chrono::duration<double>(WallClock::now() - t0).count();
      // Zero measured wall time means there is no rate to extrapolate from —
      // print "--" rather than a bogus "eta 0s".
      char etaStr[32];
      if (elapsed > 0.0) {
        std::snprintf(etaStr, sizeof(etaStr), "%.0fs",
                      elapsed / static_cast<double>(report.ran) *
                          static_cast<double>(left));
      } else {
        std::snprintf(etaStr, sizeof(etaStr), "--");
      }
      char line[256];
      std::snprintf(line, sizeof(line), "[%zu/%zu] %s: %s (%.1fs) eta %s\n", done,
                    total, spec.id().c_str(), toString(state), j.wallSeconds, etaStr);
      *opts.progress << line;
    }
  };

  runWorkerPool(opts.hostThreads, source.capacity, claim, runOne);
  return report;
}

}  // namespace detail

OrchestratorReport runManifest(SweepManifest& manifest, const std::string& manifestPath,
                               const OrchestratorOptions& opts, const JobRunner& runner,
                               std::vector<RunResult>* results) {
  // Normalize stale state from a previous (possibly killed) invocation.
  std::vector<std::size_t> runnable;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    JobRecord& j = manifest.jobs[i];
    if (j.state == JobState::Running) j.state = JobState::Pending;
    if (j.state == JobState::Ok &&
        (j.artifact.empty() || !fs::exists(fs::path(j.artifact)))) {
      j.state = JobState::Pending;  // artifact lost; the result is gone with it
      j.artifact.clear();
    }
    if (opts.rerunFailed &&
        (j.state == JobState::Failed || j.state == JobState::Hang ||
         j.state == JobState::Timeout)) {
      j.state = JobState::Pending;
      j.diagnostic.clear();
    }
    if (j.state == JobState::Pending) {
      runnable.push_back(i);
    } else {
      ++skipped;
    }
  }

  auto checkpoint = [&] {
    if (!manifestPath.empty()) manifest.save(manifestPath);
  };
  // The in-process claim source: a cursor over the runnable jobs, with the
  // manifest checkpointed on every claim and completion.
  std::vector<char> ranNow(manifest.jobs.size(), 0);
  std::size_t cursor = 0;
  std::size_t finishedNow = 0;
  detail::ClaimSource source;
  source.capacity = runnable.size();
  source.claim = [&]() -> std::ptrdiff_t {
    if (cursor >= runnable.size()) return detail::kNoMoreJobs;
    const std::size_t i = runnable[cursor++];
    manifest.jobs[i].state = JobState::Running;
    checkpoint();
    return static_cast<std::ptrdiff_t>(i);
  };
  source.finished = [&](std::size_t i) {
    ranNow[i] = 1;
    ++finishedNow;
    checkpoint();
  };
  source.doneCount = [&] { return skipped + finishedNow; };

  if (results != nullptr) {
    results->clear();
    results->resize(manifest.jobs.size());
  }
  OrchestratorReport report = detail::executeJobs(manifest, opts, runner, source, results);
  report.skipped = skipped;
  report.ok = manifest.countIn(JobState::Ok);
  report.failed = manifest.countIn(JobState::Failed) + manifest.countIn(JobState::Hang) +
                  manifest.countIn(JobState::Timeout);

  // Hand back the complete result set: skipped-Ok jobs reload from their
  // artifacts so figure code sees a resumed sweep exactly like a fresh one;
  // every other job that did not run here gets a result that can never pass
  // for a real run.
  for (std::size_t i = 0; results != nullptr && i < manifest.jobs.size(); ++i) {
    if (ranNow[i] != 0) continue;
    const JobRecord& j = manifest.jobs[i];
    RunStatus status = RunStatus::Failed;
    std::string diagnostic = j.diagnostic;
    switch (j.state) {
      case JobState::Ok:
        try {
          (*results)[i] = loadStatsArtifact(j.artifact);
          continue;
        } catch (const std::exception& e) {
          diagnostic = std::string("exception: ") + e.what();
        }
        break;
      case JobState::Hang: status = RunStatus::Hang; break;
      case JobState::Timeout: status = RunStatus::Timeout; break;
      case JobState::Failed: break;
      case JobState::Pending:
      case JobState::Running:
        // maxJobs interrupted the invocation before this job ran.
        diagnostic = "job not run (interrupted invocation)";
        break;
    }
    (*results)[i] = unrunResult(j.spec, status, std::move(diagnostic));
  }

  checkpoint();
  return report;
}

bool writeMergedArtifact(const SweepManifest& manifest, const std::string& outPath) {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kStatsSchema);
  w.key("runs");
  w.beginArray();
  for (const JobRecord& j : manifest.jobs) {
    if (j.state != JobState::Ok) continue;
    Value doc;
    try {
      doc = stats::json::parse(readFile(j.artifact));
    } catch (const std::exception& e) {
      std::cerr << "error: artifact of " << j.spec.id() << ": " << e.what() << "\n";
      return false;
    }
    const Value* runs = doc.find("runs");
    if (runs == nullptr || !runs->isArray() || runs->array->size() != 1) {
      std::cerr << "error: " << j.artifact << " is not a one-run artifact\n";
      return false;
    }
    Value run = runs->array->at(0);
    if (run.isObject()) {
      // Host timing is the one field a resume cannot reproduce; zero it so
      // merged bytes depend only on the job specs.
      Value zero;
      zero.kind = Value::Kind::Number;
      zero.number = 0.0;
      zero.text = "0";
      (*run.object)["wall_seconds"] = zero;
    }
    stats::json::writeValue(w, run);
  }
  w.endArray();
  w.endObject();

  return writeFileAtomic(outPath, os.str());
}

SweepManifest makeManifest(const std::string& artifactDir, const std::string& machine,
                           const std::vector<std::string>& systems,
                           const std::vector<std::string>& workloads,
                           const std::vector<unsigned>& threads, std::uint64_t seed) {
  SweepManifest m;
  m.artifactDir = artifactDir;
  for (const std::string& w : workloads) {
    for (const std::string& s : systems) {
      for (const unsigned t : threads) {
        JobRecord j;
        j.spec = JobSpec{s, w, machine, t, seed};
        m.jobs.push_back(std::move(j));
      }
    }
  }
  return m;
}

}  // namespace lktm::cfg
