#include "config/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "config/artifact.hpp"
#include "config/systems.hpp"
#include "stats/json.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {

namespace {

namespace fs = std::filesystem;
using stats::json::needArray;
using stats::json::needNumber;
using stats::json::needString;
using stats::json::needU64;
using stats::json::needUnsigned;
using stats::json::Value;

// Wall clock for the operator-facing progress/ETA line only; job scheduling,
// seeds and artifacts are pure functions of the manifest.
// lktm-lint: allow(no-wall-clock) -- progress/ETA display only
using WallClock = std::chrono::steady_clock;

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

/// Returned by a pool claim when the calling thread should stop.
constexpr std::ptrdiff_t kNoMoreJobs = -1;

/// Spin up `hostThreads` workers (0 = hardware concurrency, never more than
/// `jobCount`), each owning one SimContext reused for every job it runs; each
/// worker calls `claim` for the next manifest index until it returns
/// kNoMoreJobs and hands every index to `runOne`. Both must be thread-safe.
void runThreadPool(unsigned hostThreads, std::size_t jobCount,
                   const std::function<std::ptrdiff_t()>& claim,
                   const std::function<void(std::size_t, sim::SimContext&)>& runOne) {
  if (jobCount == 0) return;
  if (hostThreads == 0) {
    hostThreads = std::max(1u, std::thread::hardware_concurrency());
  }
  hostThreads = std::min<unsigned>(hostThreads, static_cast<unsigned>(jobCount));

  auto worker = [&] {
    sim::SimContext ctx;  // reused across every job this thread executes
    for (;;) {
      const std::ptrdiff_t i = claim();
      if (i == kNoMoreJobs) return;
      runOne(static_cast<std::size_t>(i), ctx);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(hostThreads);
  for (unsigned t = 0; t < hostThreads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
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

namespace {

/// The manifest's job-entry encoding: emits the entry's fields into the
/// object the caller has open.
void writeJobFields(stats::json::Writer& w, const JobRecord& j) {
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
}

/// Parse one job entry. Throws std::runtime_error naming the field unless
/// every field has its type, the state is known, the stored "id" equals the
/// id its fields produce, and an "ok" job names its artifact.
JobRecord jobRecordFromJson(const Value& e) {
  if (!e.isObject()) throw std::runtime_error("job entry is not an object");
  JobRecord j;
  j.spec.system = needString(e, "system");
  j.spec.workload = needString(e, "workload");
  j.spec.machine = needString(e, "machine");
  j.spec.threads = needUnsigned(e, "threads");
  j.spec.seed = needU64(e, "seed");
  const std::string& id = needString(e, "id");
  if (id != j.spec.id()) {
    throw std::runtime_error("\"id\" " + id + " is not the id its fields produce (" +
                             j.spec.id() + ")");
  }
  const std::string& state = needString(e, "state");
  if (!jobStateFromString(state, j.state)) {
    throw std::runtime_error("unknown state \"" + state + "\"");
  }
  j.attempts = needUnsigned(e, "attempts");
  j.diagnostic = needString(e, "diagnostic");
  j.artifact = needString(e, "artifact");
  if (j.state == JobState::Ok && j.artifact.empty()) {
    throw std::runtime_error("state \"ok\" without an \"artifact\" path");
  }
  j.wallSeconds = needNumber(e, "wall_seconds");
  j.cycles = needU64(e, "cycles");
  return j;
}

}  // namespace

SweepManifest SweepManifest::fromJson(const Value& doc) {
  try {
    const Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->isString() || schema->text != kManifestSchema) {
      throw std::runtime_error(std::string("schema is not ") + kManifestSchema);
    }
    SweepManifest m;
    m.artifactDir = needString(doc, "artifact_dir");
    const stats::json::Array& jobs = needArray(doc, "jobs");
    std::set<std::string> ids;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      try {
        m.jobs.push_back(jobRecordFromJson(jobs[i]));
      } catch (const std::runtime_error& e) {
        throw std::runtime_error("jobs[" + std::to_string(i) + "]: " + e.what());
      }
      const std::string id = m.jobs.back().spec.id();
      if (!ids.insert(id).second) throw std::runtime_error("duplicate job id " + id);
    }
    return m;
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("malformed manifest: ") + e.what());
  }
}

SweepManifest SweepManifest::load(const std::string& path) {
  const std::string text = readFile(path);
  try {
    return fromJson(stats::json::parse(text));
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string SweepManifest::toJson() const {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kManifestSchema);
  w.field("artifact_dir", artifactDir);
  w.key("jobs");
  w.beginArray();
  for (const JobRecord& j : jobs) {
    w.beginObject();
    writeJobFields(w, j);
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
  for (const wl::WorkloadRow& row : wl::workloadTable()) {
    if (row.name == name) return row.make(seed);
  }
  std::string valid;
  for (const wl::WorkloadRow& row : wl::workloadTable()) {
    valid += valid.empty() ? "" : " ";
    valid += row.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (valid: " + valid + ")");
}

RunResult runSpec(const JobSpec& spec, const OrchestratorOptions& opts,
                  sim::SimContext& ctx) {
  RunConfig cfg;
  cfg.machine = machineByName(spec.machine);
  if (opts.jobCycleBudget > 0) cfg.machine.maxCycles = opts.jobCycleBudget;
  cfg.system = systemByName(spec.system);
  cfg.threads = spec.threads;
  cfg.rngSeed = jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  return runSimulation(
      cfg, [&] { return makeJobWorkload(spec.workload, spec.seed); }, &ctx);
}

namespace detail {

RunResult attemptJobOnce(const JobSpec& spec, const OrchestratorOptions& opts,
                         const JobRunner& run, sim::SimContext& ctx) {
  try {
    return run(spec, opts, ctx);
  } catch (const std::exception& e) {
    return unrunResult(spec, RunStatus::Failed, std::string("exception: ") + e.what());
  } catch (...) {
    return unrunResult(spec, RunStatus::Failed,
                       "non-standard exception (not derived from std::exception)");
  }
}

}  // namespace detail

OrchestratorReport runManifest(SweepManifest& manifest, const std::string& manifestPath,
                               const OrchestratorOptions& opts, const JobRunner& runner,
                               std::vector<RunResult>* results) {
  // Normalize stale state from a previous (possibly killed) invocation.
  std::vector<std::size_t> runnable;
  OrchestratorReport report;
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
      ++report.skipped;
    }
  }

  const JobRunner run = runner ? runner : JobRunner(&runSpec);
  if (!manifest.artifactDir.empty()) {
    std::error_code ec;
    fs::create_directories(manifest.artifactDir, ec);
  }
  if (results != nullptr) {
    results->clear();
    results->resize(manifest.jobs.size());
  }

  std::mutex mu;  // guards manifest, report, the claim cursor and progress
  std::size_t cursor = 0;  // next index into `runnable`
  std::vector<char> ranNow(manifest.jobs.size(), 0);
  bool checkpointFailed = false;
  auto checkpoint = [&] {
    if (manifestPath.empty() || checkpointFailed) return;
    checkpointFailed = !manifest.save(manifestPath);
  };
  const auto t0 = WallClock::now();

  // Claims stop at the end of the runnable list, at opts.maxJobs, or at the
  // first checkpoint that cannot be written: running on without a manifest
  // on disk would produce results no resume can find.
  auto claim = [&]() -> std::ptrdiff_t {
    std::lock_guard<std::mutex> lock(mu);
    if (checkpointFailed || cursor >= runnable.size() ||
        (opts.maxJobs != 0 && cursor >= opts.maxJobs)) {
      return kNoMoreJobs;
    }
    const std::size_t i = runnable[cursor++];
    manifest.jobs[i].state = JobState::Running;
    checkpoint();
    if (checkpointFailed) {
      manifest.jobs[i].state = JobState::Pending;
      return kNoMoreJobs;
    }
    ++manifest.jobs[i].attempts;
    return static_cast<std::ptrdiff_t>(i);
  };

  auto runOne = [&](std::size_t i, sim::SimContext& ctx) {
    const JobSpec spec = manifest.jobs[i].spec;
    RunResult r = detail::attemptJobOnce(spec, opts, run, ctx);
    JobState state = jobStateOf(r);
    std::string artifactPath;
    if (state == JobState::Ok && !manifest.artifactDir.empty()) {
      artifactPath =
          (fs::path(manifest.artifactDir) / (jobFileStem(spec) + ".json")).string();
      if (!writeStatsJsonFile(artifactPath, r)) {
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
    ranNow[i] = 1;
    ++report.ran;
    checkpoint();
    if (opts.progress != nullptr) {
      const std::size_t total = manifest.jobs.size();
      const std::size_t done = report.skipped + report.ran;
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

  runThreadPool(opts.hostThreads, runnable.size(), claim, runOne);
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
  if (checkpointFailed) {
    throw std::runtime_error("cannot checkpoint manifest " + manifestPath);
  }
  return report;
}

bool writeMergedArtifact(const SweepManifest& manifest, const std::string& outPath) {
  std::vector<const JobRecord*> ok;
  for (const JobRecord& j : manifest.jobs) {
    if (j.state == JobState::Ok) ok.push_back(&j);
  }
  if (ok.empty()) {
    std::cerr << "error: no job is ok, so there is nothing to merge\n";
    return false;
  }
  std::ostringstream os;
  RunResult run;  // the one run held at a time
  std::size_t at = 0;
  try {
    writeStatsJson(os, ok.size(), [&](std::size_t i) -> const RunResult& {
      at = i;
      run = loadStatsArtifact(ok[i]->artifact);
      // Host timing is the one field a resume cannot reproduce; zero it so
      // merged bytes depend only on the job specs.
      run.wallSeconds = 0.0;
      return run;
    });
  } catch (const std::exception& e) {
    std::cerr << "error: artifact of " << ok[at]->spec.id() << ": " << e.what() << "\n";
    return false;
  }
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

SweepManifest presetManifest(const std::string& name, const std::string& artifactDir,
                             std::uint64_t seed) {
  if (name == "smoke") {
    // Micro workloads only: seconds, not minutes — the CI resume test runs
    // this twice.
    return makeManifest(artifactDir, "typical", {"Baseline", "LockillerTM"},
                        {"counter", "bank"}, {2, 4}, seed);
  }
  if (name == "figures") {
    // Exactly the cells paper_figures renders. Figs 1 and 7-12: every
    // Table II system on the typical machine.
    std::vector<std::string> systems;
    for (const SystemSpec& s : evaluatedSystems()) systems.push_back(s.name);
    SweepManifest m = makeManifest(artifactDir, "typical", systems, wl::stampNames(),
                                   kPaperThreadCounts, seed);
    auto append = [&m](SweepManifest extra) {
      for (JobRecord& j : extra.jobs) m.jobs.push_back(std::move(j));
    };
    // Fig 13: CGL and the systems it compares on the small and large caches.
    for (const char* machine : {"small-cache", "large-cache"}) {
      append(makeManifest(artifactDir, machine,
                          {"CGL", "Baseline", "LosaTM-SAFU", "Lockiller-RWI",
                           "LockillerTM"},
                          wl::stampNames(), kPaperThreadCounts, seed));
    }
    append(presetManifest("table3-dbtraffic", artifactDir, seed));
    // The ablation tables; their default-valued cells are grid cells already.
    std::set<std::string> ids;
    for (const JobRecord& j : m.jobs) ids.insert(j.spec.id());
    for (JobRecord& j : presetManifest("ablations", artifactDir, seed).jobs) {
      if (ids.insert(j.spec.id()).second) m.jobs.push_back(std::move(j));
    }
    return m;
  }
  if (name == "ablations") {
    // The design-choice ablations beyond the paper, each knob spelled as its
    // name token (a default value spells none):
    //   (a) retry budget x persistent-abort skip, Baseline on vacation+ @16;
    //   (b) HTMLock signature size, LockillerTM on yada @8, small cache;
    //   (c) CGL lock algorithm (MCS vs TTS), kmeans- @2/8/32;
    //   (d) mesh vs ideal network, LockillerTM @32;
    //   (e) the switch-on-fault extension, LockillerTM on yada @2/8/16.
    SweepManifest m;
    m.artifactDir = artifactDir;
    auto add = [&](const std::string& system, const std::string& workload,
                   const std::string& machine, unsigned threads) {
      JobRecord j;
      j.spec = JobSpec{system, workload, machine, threads, seed};
      m.jobs.push_back(std::move(j));
    };
    const unsigned defaultRetries = rt::RetryPolicy{}.maxRetries;
    for (const unsigned retries : {1u, 4u, 8u, 16u}) {
      const std::string budget =
          retries == defaultRetries ? "" : "+retries=" + std::to_string(retries);
      add("Baseline" + budget, "vacation+", "typical", 16);
      add("Baseline" + budget + "+noskip", "vacation+", "typical", 16);
    }
    for (const unsigned bits : {64u, 256u, 2048u, 16384u}) {
      add("LockillerTM", "yada",
          bits == MachineParams{}.signatureBits ? "small-cache"
                                                : "small-cache-sig=" + std::to_string(bits),
          8);
    }
    for (const char* system : {"CGL", "CGL+lock=tts"}) {
      for (const unsigned threads : {2u, 8u, 32u}) add(system, "kmeans-", "typical", threads);
    }
    for (const char* workload : {"intruder", "kmeans+", "vacation-"}) {
      add("LockillerTM", workload, "typical", 32);
      add("LockillerTM", workload, "typical-net=ideal", 32);
    }
    for (const unsigned threads : {2u, 8u, 16u}) {
      add("LockillerTM", "yada", "typical", threads);
      add("LockillerTM+sof", "yada", "typical", threads);
    }
    return m;
  }
  if (name == "table2-backends") {
    // The TM-backend comparison rows (Table II bottom block): the hardware
    // lockiller flagship vs. the lock baseline vs. the software TL2 and the
    // hybrid HTM/STM fallback, across every STAMP analog.
    return makeManifest(artifactDir, "typical",
                        {"LockillerTM", "CGL", "TL2-STM", "Hybrid-TM"},
                        wl::stampNames(), {8}, seed);
  }
  if (name == "table3-dbtraffic") {
    // Database-shaped traffic (Table III): skewed YCSB mixes, TPC-C-lite and
    // the SPS swap stressor across every TM backend, judged on the
    // commit-latency percentiles in the derived block rather than on mean
    // throughput.
    return makeManifest(artifactDir, "typical",
                        {"LockillerTM", "CGL", "TL2-STM", "Hybrid-TM"},
                        wl::dbWorkloadNames(), {8}, seed);
  }
  if (name == "bigcores-128" || name == "bigcores-256") {
    // Fig 7/12-style speedup grids past 64 cores: the headline systems
    // (Baseline, LosaTM-SAFU, LockillerTM) on a banked large-core machine.
    const bool big = name == "bigcores-256";
    const std::string machine = big ? "typical-c256-b16" : "typical-c128-b8";
    const std::vector<unsigned> threads =
        big ? std::vector<unsigned>{64, 128, 256} : std::vector<unsigned>{32, 64, 128};
    return makeManifest(artifactDir, machine, {"Baseline", "LosaTM-SAFU", "LockillerTM"},
                        {"genome", "ssca2", "kmeans+", "vacation+"}, threads, seed);
  }
  throw std::invalid_argument(
      "unknown preset: " + name +
      " (try smoke | figures | ablations | table2-backends | table3-dbtraffic | "
      "bigcores-128 | bigcores-256)");
}

}  // namespace lktm::cfg
