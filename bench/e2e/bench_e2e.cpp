// bench_e2e — the simulator's end-to-end host-time benchmark.
//
// One process runs one named workload: a fixed grid of simulation cells
// (system x application x thread count on one machine), executed on one host
// thread as a closed loop, one cell after another, on one reused SimContext —
// the way a sweep worker runs them. The coherence checker and the workload
// invariants stay on, as in lktm-sim and the sweeps. Every number is taken
// from outside the library: host time around the public calls, plus the
// simulated statistics every run already reports.
//
//   bench_e2e --workload fig07-32t [--seed 11] [--seconds 25]
//   bench_e2e --workload fig07-32t --trace          # per-layer spans
//   bench_e2e --list
//
// A run does nine cold starts (setup_s), then whole passes over the grid
// until --seconds is used up (at least one). Each metric is printed as
// "W metric value unit (n=..., q1=..., q3=...)", the full result is written as
// JSON, and the last stdout line is a one-line JSON summary.
//
// Correctness: every executed cell must be ok() (checker + invariants) and
// its fingerprint — simulated cycles, commits, aborts, NoC/L1/LLC traffic and
// commit-latency percentiles — must equal the committed expected_seed<N>.json
// entry when one exists for the seed, and must repeat exactly across passes,
// cold starts and the traced replay. Event counts are not fingerprinted: a
// host-only speed-up may legally change them.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "coherence/checker.hpp"
#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "config/artifact.hpp"
#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "config/systems.hpp"
#include "cpu/barrier.hpp"
#include "cpu/core.hpp"
#include "noc/ideal.hpp"
#include "noc/mesh.hpp"
#include "runtime/backends/backend.hpp"
#include "stats/json.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace lktm;
namespace fs = std::filesystem;
namespace json = stats::json;

// lktm-lint: allow(no-wall-clock) -- host time is what this benchmark measures
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::string machine;
  std::vector<std::string> systems;
  std::vector<std::string> apps;
  std::vector<unsigned> threads;
  /// Run each pass the way `lktm_sweep run/merge/summarize` does: a manifest
  /// file with checkpoints, per-job artifacts, a merged artifact and a summary.
  bool viaManifest = false;
};

// Why each grid exists is recorded in bench/e2e/README.md; in short:
// fig07-32t is conflict-handling bound (the Engine::run loop), backends-8t is
// emission/interpreter bound (TL2 and hybrid programs), dbtraffic-8t adds the
// stats/config write path, bigmesh-64t is dominated by per-cell set-up on a
// banked 64-core machine.
std::vector<Workload> allWorkloads() {
  std::vector<std::string> tableII;  // Table II rows 1-9: CGL ... LockillerTM
  for (const cfg::SystemSpec& s : cfg::evaluatedSystems()) {
    if (s.backend.empty()) tableII.push_back(s.name);
  }
  const std::vector<std::string> backends{"LockillerTM", "CGL", "TL2-STM", "Hybrid-TM"};
  return {
      {"fig07-32t", "typical", tableII, wl::stampNames(), {32}, false},
      {"backends-8t", "typical", backends, wl::stampNames(), {8}, false},
      {"dbtraffic-8t", "typical", backends,
       {"ycsb", "ycsb-lo", "ycsb-w", "ycsb-scan", "tpcc", "sps", "sps-part"}, {8}, true},
      {"bigmesh-64t", "typical-c64-b4", {"Baseline", "LosaTM-SAFU", "LockillerTM"},
       {"genome", "ssca2", "kmeans+", "vacation+"}, {32, 64}, false},
  };
}

/// The pass's job list, in the order a sweep manifest runs it.
std::vector<cfg::JobSpec> planCells(const Workload& w, std::uint64_t seed, bool smoke) {
  const cfg::SweepManifest m =
      cfg::makeManifest("", w.machine, w.systems, w.apps, w.threads, seed);
  std::vector<cfg::JobSpec> cells;
  for (const cfg::JobRecord& j : m.jobs) cells.push_back(j.spec);
  if (smoke && cells.size() > 2) cells.resize(2);
  return cells;
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder: a span per call into a layer, named after the
/// per-layer metric it feeds, tagged with the cell it belongs to and the span
/// that encloses it. Written out as Chrome trace JSON when the run ends.
class Tracer {
 public:
  static constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Record {
    const char* name;
    std::size_t cell;
    std::size_t parent;
    double begin;  ///< seconds since the tracer started
    double end;
  };

  std::size_t begin(const char* name) {
    const std::size_t parent = open_.empty() ? kNoParent : open_.back();
    records_.push_back({name, cell_, parent, now(), 0.0});
    open_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }
  void end(std::size_t span) {
    records_.at(span).end = now();
    if (!open_.empty() && open_.back() == span) open_.pop_back();
  }
  /// Close whatever an exception left open.
  void closeAll() {
    while (!open_.empty()) end(open_.back());
  }
  void setCell(std::size_t cell) { cell_ = cell; }

  /// Summed duration of every span with this name.
  double total(const std::string& name) const {
    double s = 0.0;
    for (const Record& r : records_) {
      if (name == r.name) s += r.end - r.begin;
    }
    return s;
  }

  void writeChromeJson(const fs::path& path, const std::vector<cfg::JobSpec>& cells) const;
  /// Per-name count, total and self time (duration minus child spans).
  std::string selfTimeTable() const;

 private:
  double now() const { return secondsSince(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
  std::size_t cell_ = kNoCell;
};

/// RAII span on an optional tracer (null = untraced, no cost but a branch).
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), id_(t != nullptr ? t->begin(name) : 0) {}
  ~Span() {
    if (t_ != nullptr) t_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  std::size_t id_;
};

void Tracer::writeChromeJson(const fs::path& path,
                             const std::vector<cfg::JobSpec>& cells) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  json::Writer w(out, /*pretty=*/false);
  w.beginObject();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.beginArray();
  for (const Record& r : records_) {
    w.beginObject();
    w.field("name", r.name);
    w.field("cat", "bench_e2e");
    w.field("ph", "X");
    w.field("ts", r.begin * 1e6);
    w.field("dur", (r.end - r.begin) * 1e6);
    w.field("pid", 1);
    w.field("tid", 1);
    w.key("args");
    w.beginObject();
    if (r.cell != kNoCell) {
      w.field("cell", static_cast<std::uint64_t>(r.cell));
      w.field("job", cells.at(r.cell).id());
    }
    w.field("parent", r.parent == kNoParent ? "" : records_[r.parent].name);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  out << "\n";
}

std::string Tracer::selfTimeTable() const {
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> childTime(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent != kNoParent) childTime[r.parent] += r.end - r.begin;
  }
  double all = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Row& row = rows[r.name];
    ++row.count;
    row.total += r.end - r.begin;
    row.self += r.end - r.begin - childTime[i];
    all += r.end - r.begin - childTime[i];
  }
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %8s %12s %12s %7s\n", "span", "count",
                "total_s", "self_s", "self%");
  os << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "%-22s %8zu %12.6f %12.6f %6.2f%%\n", name.c_str(),
                  row.count, row.total, row.self, all > 0.0 ? 100.0 * row.self / all : 0.0);
    os << line;
  }
  return os.str();
}

// -------------------------------------------------------------- fingerprint

enum Field : std::size_t {
  kCycles, kHtm, kLock, kStl, kStm, kAborts, kMessages, kFlitHops,
  kL1Hits, kL1Misses, kLlcHits, kLlcMisses, kP50, kP90, kP99, kP999, kFieldCount
};
constexpr std::array<const char*, kFieldCount> kFieldNames{
    "cycles", "commits.htm", "commits.lock", "commits.stl", "commits.stm",
    "aborts", "noc.messages", "noc.flit_hops", "l1.hits", "l1.misses",
    "llc.hits", "llc.misses", "latency.p50", "latency.p90", "latency.p99",
    "latency.p999"};
using Fingerprint = std::array<std::uint64_t, kFieldCount>;
/// workload name -> cell id -> fingerprint
using FingerprintFile = std::map<std::string, std::map<std::string, Fingerprint>>;
constexpr const char* kFingerprintSchema = "lktm.e2e.fingerprints.v1";

Fingerprint fingerprintOf(const cfg::RunResult& r, Tracer* tr) {
  Fingerprint f{};
  f[kCycles] = r.cycles;
  f[kHtm] = r.htmCommits();
  f[kLock] = r.lockCommits();
  f[kStl] = r.stlCommits();
  f[kStm] = r.stmCommits();
  f[kAborts] = r.aborts();
  f[kMessages] = r.messages();
  f[kFlitHops] = r.flitHops();
  f[kL1Hits] = r.l1Hits();
  f[kL1Misses] = r.l1Misses();
  f[kLlcHits] = r.llcHits();
  f[kLlcMisses] = r.llcMisses();
  const Span span(tr, "stats.percentile_s");
  f[kP50] = r.commitLatencyPercentile(500);
  f[kP90] = r.commitLatencyPercentile(900);
  f[kP99] = r.commitLatencyPercentile(990);
  f[kP999] = r.commitLatencyPercentile(999);
  return f;
}

fs::path expectedPath(std::uint64_t seed) {
  return fs::path(LKTM_E2E_SOURCE_DIR) / ("expected_seed" + std::to_string(seed) + ".json");
}

/// Parse a fingerprint file; throws std::runtime_error when it is malformed.
FingerprintFile loadFingerprints(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::parse(ss.str());
  const json::Value* schema = doc.find("schema");
  const json::Value* fields = doc.find("fields");
  const json::Value* workloads = doc.find("workloads");
  if (schema == nullptr || schema->text != kFingerprintSchema || fields == nullptr ||
      !fields->isArray() || workloads == nullptr || !workloads->isObject()) {
    throw std::runtime_error(path.string() + ": not a " + kFingerprintSchema + " document");
  }
  bool sameFields = fields->array->size() == kFieldCount;
  for (std::size_t i = 0; sameFields && i < kFieldCount; ++i) {
    sameFields = (*fields->array)[i].text == kFieldNames[i];
  }
  if (!sameFields) throw std::runtime_error(path.string() + ": field list differs from this build's");
  FingerprintFile out;
  for (const auto& [wname, cells] : *workloads->object) {
    if (!cells.isObject()) throw std::runtime_error(path.string() + ": bad workload entry");
    for (const auto& [id, arr] : *cells.object) {
      if (!arr.isArray() || arr.array->size() != kFieldCount) {
        throw std::runtime_error(path.string() + ": bad fingerprint for " + id);
      }
      Fingerprint f{};
      for (std::size_t i = 0; i < kFieldCount; ++i) f[i] = json::asU64((*arr.array)[i]);
      out[wname][id] = f;
    }
  }
  return out;
}

/// One cell per line, sorted, so two files `cmp` and diff cleanly.
void writeFingerprints(const fs::path& path, std::uint64_t seed, const FingerprintFile& file) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kFingerprintSchema << "\",\n  \"seed\": " << seed
     << ",\n  \"fields\": [";
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    os << (i == 0 ? "" : ", ") << json::quote(kFieldNames[i]);
  }
  os << "],\n  \"workloads\": {";
  bool firstW = true;
  for (const auto& [wname, cells] : file) {
    os << (firstW ? "\n" : ",\n") << "    " << json::quote(wname) << ": {";
    firstW = false;
    bool firstC = true;
    for (const auto& [id, f] : cells) {
      os << (firstC ? "\n" : ",\n") << "      " << json::quote(id) << ": [";
      firstC = false;
      for (std::size_t i = 0; i < kFieldCount; ++i) os << (i == 0 ? "" : ", ") << f[i];
      os << "]";
    }
    os << "\n    }";
  }
  os << "\n  }\n}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << os.str();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Counts executed cells and failures: a cell fails when it is not ok()
/// (crash, hang, checker or invariant violation) or when its fingerprint
/// differs from the expected file or from an earlier execution of the cell.
class Gate {
 public:
  Gate(std::map<std::string, Fingerprint> expected, bool haveExpected)
      : expected_(std::move(expected)), haveExpected_(haveExpected) {}

  void check(const std::string& id, const cfg::RunResult& r, const Fingerprint& f) {
    ++attempted_;
    bool bad = false;
    if (!r.ok()) {
      std::fprintf(stderr, "cell %s FAILED: %s\n", id.c_str(), r.str().c_str());
      bad = true;
    }
    if (haveExpected_) {
      const auto it = expected_.find(id);
      if (it == expected_.end()) {
        std::fprintf(stderr, "cell %s: missing from the expected fingerprints\n", id.c_str());
        bad = true;
      } else {
        bad |= !same(id, "expected", it->second, f);
      }
    }
    if (const auto it = seen_.find(id); it != seen_.end()) {
      bad |= !same(id, "earlier run", it->second, f);
    } else {
      seen_.emplace(id, f);
    }
    if (bad) ++failed_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, Fingerprint>& seen() const { return seen_; }

 private:
  static bool same(const std::string& id, const char* against, const Fingerprint& want,
                   const Fingerprint& got) {
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      if (want[i] != got[i]) {
        std::fprintf(stderr, "cell %s: %s %llu, %s had %llu\n", id.c_str(), kFieldNames[i],
                     static_cast<unsigned long long>(got[i]), against,
                     static_cast<unsigned long long>(want[i]));
        return false;
      }
    }
    return true;
  }

  std::map<std::string, Fingerprint> expected_;
  bool haveExpected_;
  std::map<std::string, Fingerprint> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------- measurement

/// Simulated work of a set of cells, summed: the per-layer counts.
struct Counts {
  std::uint64_t events = 0, commits = 0, aborts = 0, llcAccesses = 0, rejects = 0,
                wakeups = 0, interbank = 0, sigRejects = 0, switchAttempts = 0,
                switchGrants = 0, l1Hits = 0, l1Accesses = 0, dramLines = 0,
                messages = 0, flitHops = 0;

  void add(const cfg::RunResult& r, std::uint64_t executedEvents) {
    events += executedEvents;
    commits += r.totalCommits();
    aborts += r.aborts();
    llcAccesses += r.llcHits() + r.llcMisses();
    rejects += r.rejectsSent();
    wakeups += r.wakeupsSent();
    interbank += r.stats.value("dir.interbank.msgs");
    sigRejects += r.sigRejects();
    switchAttempts += r.switchAttempts();
    switchGrants += r.switchGrants();
    l1Hits += r.l1Hits();
    l1Accesses += r.l1Hits() + r.l1Misses();
    dramLines += r.stats.value("mem.line_reads") + r.stats.value("mem.line_writes");
    messages += r.messages();
    flitHops += r.flitHops();
  }
};

struct PassStats {
  double gridS = 0.0;
  double cellS = 0.0;  ///< summed host time of the cells
  double loopS = 0.0;  ///< summed RunResult::wallSeconds (the Engine::run loop)
  std::vector<double> cellMs;
  Counts counts;

  void addCell(double seconds, const cfg::RunResult& r, std::uint64_t events) {
    cellS += seconds;
    loopS += r.wallSeconds;
    cellMs.push_back(seconds * 1e3);
    counts.add(r, events);
  }
};

const cfg::JobRunner kRunSpec = &cfg::runSpec;

/// One sweep-job execution with the orchestrator's exception capture.
cfg::RunResult runCell(const cfg::JobSpec& spec, const cfg::OrchestratorOptions& opts,
                       sim::SimContext& ctx) {
  return cfg::detail::attemptJobOnce(spec, opts, kRunSpec, ctx);
}

/// runCell, timed into `pass` and checked by `gate`.
cfg::RunResult timedCell(const cfg::JobSpec& spec, const cfg::OrchestratorOptions& opts,
                         sim::SimContext& ctx, PassStats& pass, Gate& gate) {
  const std::uint64_t ev0 = ctx.queue().executed();
  const auto c0 = Clock::now();
  cfg::RunResult r = runCell(spec, opts, ctx);
  pass.addCell(secondsSince(c0), r, ctx.queue().executed() - ev0);
  gate.check(spec.id(), r, fingerprintOf(r, nullptr));
  return r;
}

/// The cold start a new sweep worker pays: plan the job list, build a fresh
/// SimContext, run the first cell.
double coldStart(const Workload& w, std::uint64_t seed, bool smoke,
                 std::vector<cfg::JobSpec>& cells, std::unique_ptr<sim::SimContext>& ctx,
                 Gate& gate) {
  ctx.reset();
  const auto t0 = Clock::now();
  cells = planCells(w, seed, smoke);
  ctx = std::make_unique<sim::SimContext>();
  const cfg::RunResult r = runCell(cells.front(), {}, *ctx);
  const double s = secondsSince(t0);
  gate.check(cells.front().id(), r, fingerprintOf(r, nullptr));
  return s;
}

PassStats runBarePass(const std::vector<cfg::JobSpec>& cells, sim::SimContext& ctx,
                      Gate& gate) {
  PassStats p;
  const auto t0 = Clock::now();
  for (const cfg::JobSpec& spec : cells) timedCell(spec, {}, ctx, p, gate);
  p.gridS = secondsSince(t0);
  return p;
}

/// Merge + summary of a completed manifest, as `lktm_sweep merge --summary`.
void mergeAndSummarize(const cfg::SweepManifest& m, const fs::path& dir) {
  const fs::path merged = dir / "merged.json";
  if (!cfg::writeMergedArtifact(m, merged.string())) {
    throw std::runtime_error("cannot merge the artifacts of " + dir.string());
  }
  std::ifstream in(merged, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::ofstream out(dir / "summary.json", std::ios::binary | std::ios::trunc);
  cfg::writeSummaryArtifact(json::parse(ss.str()), out);
  if (!out) throw std::runtime_error("cannot write the summary in " + dir.string());
}

cfg::SweepManifest manifestFor(const std::vector<cfg::JobSpec>& cells, const fs::path& dir) {
  cfg::SweepManifest m;
  m.artifactDir = (dir / "jobs").string();
  for (const cfg::JobSpec& spec : cells) {
    cfg::JobRecord j;
    j.spec = spec;
    m.jobs.push_back(std::move(j));
  }
  return m;
}

/// One pass the way `lktm_sweep plan/run/merge/summarize` executes it: the
/// manifest is written, runManifest checkpoints it after every job and writes
/// each job's artifact, then the artifacts are merged and summarized.
PassStats runManifestPass(const std::vector<cfg::JobSpec>& cells, const fs::path& dir,
                          Gate& gate) {
  PassStats p;
  const auto t0 = Clock::now();
  fs::create_directories(dir);
  cfg::SweepManifest m = manifestFor(cells, dir);
  const std::string manifestPath = (dir / "manifest.json").string();
  if (!m.save(manifestPath)) throw std::runtime_error("cannot write " + manifestPath);
  cfg::OrchestratorOptions opts;
  opts.hostThreads = 1;
  const cfg::JobRunner timed = [&](const cfg::JobSpec& spec,
                                   const cfg::OrchestratorOptions& o,
                                   sim::SimContext& ctx) {
    return timedCell(spec, o, ctx, p, gate);
  };
  cfg::runManifest(m, manifestPath, opts, timed);
  mergeAndSummarize(m, dir);
  p.gridS = secondsSince(t0);
  return p;
}

/// One cell rebuilt from the public constructors cfg::runSpec and
/// cfg::runSimulation use, call for call, with a span around each layer
/// call. The gate compares its fingerprint with the untraced runSimulation
/// result of the same cell, so this mirror cannot drift from the runner.
struct Replay {
  cfg::RunResult result;
  std::uint64_t instrs = 0;  ///< emitted instructions, all threads
};

Replay replayCell(const cfg::JobSpec& spec, sim::SimContext& simCtx, Tracer& tr) {
  Replay out;
  cfg::RunResult& res = out.result;

  std::size_t s = tr.begin("sim.build_s");
  cfg::RunConfig cfg;
  cfg.machine = cfg::machineByName(spec.machine);
  cfg.system = cfg::systemByName(spec.system);
  cfg.threads = spec.threads;
  cfg.rngSeed = cfg::jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  cfg.machine.validate();
  if (cfg.threads > cfg.machine.numCores) {
    throw std::invalid_argument("threads exceed the machine's cores");
  }
  res.system = cfg.system.name;
  res.machine = cfg.machine.name;
  res.threads = cfg.threads;
  res.cores = cfg.machine.numCores;
  res.banks = cfg.machine.numBanks;
  res.seed = cfg.rngSeed;

  simCtx.beginRun(cfg.machine.watchdogWindow, cfg.rngSeed);
  simCtx.setTraceSink(nullptr);
  sim::Engine& engine = simCtx.engine();
  mem::MainMemory memory;
  memory.attachStats(simCtx.stats());
  std::unique_ptr<noc::Network> netPtr;
  if (cfg.machine.idealNetwork) {
    netPtr = std::make_unique<noc::IdealNetwork>(simCtx, cfg.machine.idealNetworkLatency);
  } else {
    netPtr = std::make_unique<noc::MeshNetwork>(simCtx, cfg.machine.mesh);
  }
  noc::Network& net = *netPtr;
  coh::DirectoryController dir(simCtx, net, memory, cfg.machine.protocol,
                               cfg.machine.numCores, cfg.machine.numBanks,
                               core::HtmLockUnitParams{cfg.machine.signatureBits, 4});
  tr.end(s);

  const unsigned n = cfg.threads;
  s = tr.begin("workloads.init_s");
  std::unique_ptr<wl::Workload> workload = cfg::makeJobWorkload(spec.workload, spec.seed);
  res.workload = workload->name();
  workload->init(memory, n);
  tr.end(s);

  s = tr.begin("runtime.emit_s");
  const std::string backendName = !cfg.machine.backend.empty()
                                      ? cfg.machine.backend
                                      : (!cfg.system.backend.empty()
                                             ? cfg.system.backend
                                             : tm::defaultBackendFor(cfg.system.policy));
  std::unique_ptr<tm::Backend> backend = tm::makeBackend(
      backendName,
      tm::BackendConfig{cfg.system.policy, cfg.system.retry, wl::kFallbackLockAddr});
  res.backend = backend->name();
  tr.end(s);
  if (backend->usesStmScratch() && workload->footprintEnd() > tm::kStmScratchBase) {
    throw std::invalid_argument("workload footprint reaches the STM scratch region");
  }

  if (cfg.warmLlc) {
    s = tr.begin("coherence.preload_s");
    dir.preloadLlc(lineOf(wl::kFallbackLockAddr), lineOf(workload->footprintEnd()) + 1);
    tr.end(s);
  }

  s = tr.begin("sim.build_s");
  std::vector<std::unique_ptr<coh::L1Controller>> l1s;
  l1s.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    l1s.push_back(std::make_unique<coh::L1Controller>(
        simCtx, net, static_cast<CoreId>(i), cfg.machine.l1, cfg.machine.protocol,
        cfg.system.policy, cfg.machine.numCores));
    l1s.back()->connectDirectory(&dir);
    l1s.back()->setLockLine(lineOf(wl::kFallbackLockAddr));
    dir.connectL1(static_cast<CoreId>(i), l1s.back().get());
  }
  std::vector<coh::MsgSink*> peers;
  for (auto& l1 : l1s) peers.push_back(l1.get());
  for (auto& l1 : l1s) l1->connectPeers(peers);
  cpu::BarrierUnit barrier(simCtx, n);
  cpu::CpuParams cpuParams = cfg.machine.cpu;
  cpuParams.priorityKind = cfg.system.policy.priority;
  cpuParams.switchOnFault = cfg.system.policy.switching && cfg.system.policy.switchOnFault;
  tr.end(s);

  std::vector<std::unique_ptr<cpu::Cpu>> cpus;
  cpus.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    s = tr.begin("runtime.emit_s");
    cpu::Program program = workload->buildProgram(i, n, *backend);
    out.instrs += program.size();
    tr.end(s);
    s = tr.begin("sim.build_s");
    cpus.push_back(std::make_unique<cpu::Cpu>(simCtx, static_cast<CoreId>(i), *l1s[i],
                                              barrier, std::move(program), cpuParams));
    engine.addDiagnostic([c = cpus.back().get()] { return c->diagnostic(); });
    tr.end(s);
  }
  engine.addDiagnostic([&dir] { return dir.diagnostic(); });

  s = tr.begin("sim.run_s");
  for (auto& c : cpus) c->start();
  try {
    engine.run(cfg.machine.maxCycles);
  } catch (const sim::SimulationTimeout& e) {
    res.status = cfg::RunStatus::Timeout;
    res.diagnostic = e.what();
  } catch (const sim::SimulationHang& e) {
    res.status = cfg::RunStatus::Hang;
    res.diagnostic = e.what();
  }
  tr.end(s);

  for (auto& c : cpus) {
    if (!c->halted()) {
      if (res.status == cfg::RunStatus::Ok) {
        res.status = cfg::RunStatus::Hang;
        res.diagnostic = "thread never halted";
      }
      res.diagnostic += "\n  " + c->diagnostic();
    }
    res.cycles = std::max(res.cycles, c->haltedAt());
  }
  if (res.cycles == 0) res.cycles = engine.now();
  s = tr.begin("stats.snapshot_s");
  res.stats = simCtx.stats().snapshot();
  tr.end(s);

  if (res.status == cfg::RunStatus::Ok && cfg.runCoherenceChecker) {
    s = tr.begin("coherence.check_s");
    std::vector<const coh::L1Controller*> cl1s;
    for (auto& l1 : l1s) cl1s.push_back(l1.get());
    coh::CoherenceChecker checker(cl1s, &dir);
    for (auto& v : checker.check()) res.violations.push_back("coherence: " + v);
    tr.end(s);
  }
  if (res.status == cfg::RunStatus::Ok && cfg.verifyWorkload) {
    s = tr.begin("workloads.verify_s");
    wl::WordReader read = [&](Addr addr) -> std::uint64_t {
      const LineAddr line = lineOf(addr);
      for (auto& l1 : l1s) {
        const mem::CacheEntry* e = l1->cache().find(line);
        if (e != nullptr && e->dirty) return e->data[wordOf(addr)];
      }
      if (dir.llcHas(line)) return dir.llcData(line)[wordOf(addr)];
      return memory.readWord(addr);
    };
    for (auto& v : workload->verify(read, n)) res.violations.push_back(v);
    tr.end(s);
  }
  res.workload = spec.workload;
  return out;
}

struct TracedPass {
  double cellS = 0.0;  ///< summed replay time, the traced twin of PassStats::cellS
  std::uint64_t instrs = 0;
};

/// The traced pass: every cell replayed under spans, its fingerprint checked,
/// its artifact written; then the pass's manifest is merged and summarized.
TracedPass runTracedPass(const std::vector<cfg::JobSpec>& cells, sim::SimContext& ctx,
                         const fs::path& dir, Tracer& tr, Gate& gate) {
  TracedPass p;
  fs::create_directories(dir / "jobs");
  cfg::SweepManifest m = manifestFor(cells, dir);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const cfg::JobSpec& spec = cells[i];
    tr.setCell(i);
    const std::size_t cellSpan = tr.begin("cell");
    Replay rep;
    const auto c0 = Clock::now();
    try {
      rep = replayCell(spec, ctx, tr);
    } catch (const std::exception& e) {
      tr.closeAll();
      rep.result.status = cfg::RunStatus::Failed;
      rep.result.diagnostic = std::string("exception: ") + e.what();
    }
    p.cellS += secondsSince(c0);
    p.instrs += rep.instrs;
    gate.check(spec.id(), rep.result, fingerprintOf(rep.result, &tr));
    cfg::JobRecord& job = m.jobs[i];
    job.state = cfg::jobStateOf(rep.result);
    if (job.state == cfg::JobState::Ok) {
      const Span span(&tr, "config.artifact_s");
      job.artifact = (fs::path(m.artifactDir) / (cfg::jobFileStem(spec) + ".json")).string();
      if (!cfg::writeStatsJsonFile(job.artifact, rep.result)) {
        throw std::runtime_error("cannot write " + job.artifact);
      }
    }
    tr.end(cellSpan);
  }
  tr.setCell(Tracer::kNoCell);
  {
    const Span span(&tr, "config.merge_s");
    const std::string manifestPath = (dir / "manifest.json").string();
    if (!m.save(manifestPath)) throw std::runtime_error("cannot write " + manifestPath);
    mergeAndSummarize(m, dir);
  }
  return p;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
  double q1 = 0.0;
  double q3 = 0.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Quartiles as Python's statistics.quantiles(v, n=4) ("exclusive") gives them.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0]};
  const long len = static_cast<long>(v.size());
  auto q = [&](long i) {
    long j = i * (len + 1) / 4;
    j = std::clamp(j, 1L, len - 1);
    const long delta = i * (len + 1) - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) / 4.0;
  };
  return {q(1), q(3)};
}

Metric summarize(std::string name, std::string unit, const std::vector<double>& samples) {
  Metric m{std::move(name), median(samples), std::move(unit), samples.size(), 0.0, 0.0};
  std::tie(m.q1, m.q3) = quartiles(samples);
  return m;
}

Metric single(std::string name, std::string unit, double value) {
  return Metric{std::move(name), value, std::move(unit), 1, value, value};
}

/// Nearest-rank percentile: an actual sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

template <class Fn>
std::vector<double> perPass(const std::vector<PassStats>& passes, Fn fn) {
  std::vector<double> v;
  for (const PassStats& p : passes) v.push_back(fn(p));
  return v;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The end-to-end metrics (tracing off).
std::vector<Metric> endToEndMetrics(const std::vector<PassStats>& passes,
                                    const std::vector<double>& setupS) {
  std::vector<double> cellMs;
  for (const PassStats& p : passes) cellMs.insert(cellMs.end(), p.cellMs.begin(), p.cellMs.end());
  Metric p90 = summarize("cell_ms_p90", "ms", cellMs);
  p90.value = percentile(cellMs, 0.9);
  return {
      summarize("grid_s", "s", perPass(passes, [](const PassStats& p) { return p.gridS; })),
      summarize("cell_ms_p50", "ms", cellMs),
      p90,
      summarize("setup_s", "s", setupS),
      single("peak_rss_mb", "MB", peakRssMb()),
  };
}

/// Per-layer metrics measured without tracing: host time the runner already
/// reports, and the simulated work counts of one pass.
std::vector<Metric> untracedLayerMetrics(const std::vector<PassStats>& passes) {
  const Counts& c = passes.back().counts;
  auto count = [](const char* name, std::uint64_t v) {
    return single(name, "count", static_cast<double>(v));
  };
  return {
      summarize("sim.run_s", "s", perPass(passes, [](const PassStats& p) { return p.loopS; })),
      count("sim.events", c.events),
      summarize("sim.ns_per_event", "ns", perPass(passes, [](const PassStats& p) {
                  return p.counts.events == 0 ? 0.0 : p.loopS * 1e9 / static_cast<double>(p.counts.events);
                })),
      summarize("sim.loop_share", "ratio",
                perPass(passes, [](const PassStats& p) { return p.loopS / p.gridS; })),
      count("cpu.commits", c.commits),
      count("cpu.aborts", c.aborts),
      single("cpu.commit_ratio", "ratio", ratio(c.commits, c.commits + c.aborts)),
      count("coherence.llc_accesses", c.llcAccesses),
      count("coherence.rejects", c.rejects),
      count("coherence.wakeups", c.wakeups),
      count("coherence.interbank_msgs", c.interbank),
      count("core.sig_rejects", c.sigRejects),
      single("core.switch_grant_ratio", "ratio", ratio(c.switchGrants, c.switchAttempts)),
      count("mem.l1_accesses", c.l1Accesses),
      single("mem.l1_hit_ratio", "ratio", ratio(c.l1Hits, c.l1Accesses)),
      count("mem.dram_lines", c.dramLines),
      count("noc.messages", c.messages),
      count("noc.flit_hops", c.flitHops),
      summarize("config.overhead_s", "s",
                perPass(passes, [](const PassStats& p) { return p.gridS - p.cellS; })),
  };
}

/// Per-layer metrics of the traced pass.
std::vector<Metric> tracedLayerMetrics(const Tracer& tr, const TracedPass& tp,
                                       const std::vector<PassStats>& passes) {
  std::vector<Metric> out;
  for (const char* name :
       {"sim.build_s", "runtime.emit_s", "workloads.init_s", "workloads.verify_s",
        "coherence.preload_s", "coherence.check_s", "stats.snapshot_s",
        "stats.percentile_s", "config.artifact_s", "config.merge_s"}) {
    out.push_back(single(name, "s", tr.total(name)));
  }
  out.push_back(single("runtime.instrs", "count", static_cast<double>(tp.instrs)));
  const double untracedCellS =
      median(perPass(passes, [](const PassStats& p) { return p.cellS; }));
  out.push_back(single("trace_overhead", "ratio", tp.cellS / untracedCellS - 1.0));
  return out;
}

// ------------------------------------------------------------------- output

void printMetric(const std::string& workload, const Metric& m) {
  std::printf("%s %s %.6g %s (n=%zu, q1=%.6g, q3=%.6g)\n", workload.c_str(), m.name.c_str(),
              m.value, m.unit.c_str(), m.n, m.q1, m.q3);
}

void writeMetricsObject(json::Writer& w, const std::vector<Metric>& metrics, bool detail) {
  w.beginObject();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.beginObject();
    w.field("value", m.value);
    w.field("unit", m.unit);
    if (detail) {
      w.field("n", static_cast<std::uint64_t>(m.n));
      w.field("q1", m.q1);
      w.field("q3", m.q3);
    }
    w.endObject();
  }
  w.endObject();
}

// --------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = cfg::kDefaultSweepSeed;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  bool writeExpected = false;
  std::string fingerprintsOut;
  std::string jsonOut;
};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: bench_e2e --workload W [options]\n"
      "       bench_e2e --list\n"
      "  --workload W            fig07-32t | backends-8t | dbtraffic-8t | bigmesh-64t\n"
      "  --seed N                workload seed (default 11, the sweep default)\n"
      "  --seconds S             measuring budget: whole passes until S is used\n"
      "                          (default 25; at least one pass)\n"
      "  --trace [0|1]           add one traced pass; report per-layer metrics\n"
      "  --smoke                 2 cells, 1 pass, 1 cold start\n"
      "  --json PATH             full result (default build/e2e/out/<W>[-trace]-s<N>.result.json)\n"
      "  --fingerprints-out PATH write this run's cell fingerprints\n"
      "  --write-expected        record this run's fingerprints in\n"
      "                          bench/e2e/expected_seed<N>.json\n");
}

bool parseU64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && p == end && p != s;
}

/// Returns false on a malformed command line.
bool parseArgs(int argc, char** argv, Options& o, bool& list) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasNext = i + 1 < argc;
    if (a == "--list") {
      list = true;
    } else if (a == "--workload" && hasNext) {
      o.workload = argv[++i];
    } else if (a == "--seed" && hasNext) {
      if (!parseU64(argv[++i], o.seed)) return false;
    } else if (a == "--seconds" && hasNext) {
      std::uint64_t s = 0;
      if (!parseU64(argv[++i], s) || s == 0 || s > 3600) return false;
      o.seconds = static_cast<double>(s);
    } else if (a == "--trace") {
      o.trace = true;
      if (hasNext && (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0)) {
        o.trace = argv[++i][0] == '1';
      }
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--write-expected") {
      o.writeExpected = true;
    } else if (a == "--fingerprints-out" && hasNext) {
      o.fingerprintsOut = argv[++i];
    } else if (a == "--json" && hasNext) {
      o.jsonOut = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

int run(const Options& o, const Workload& w) {
  const auto tStart = Clock::now();
  // Scratch output is per workload and mode, so repeated runs overwrite it;
  // only the result file keeps the seed in its name.
  const std::string tag = w.name + (o.smoke ? "-smoke" : "") + (o.trace ? "-trace" : "");
  const fs::path outDir = LKTM_E2E_OUT_DIR;
  fs::create_directories(outDir);

  std::map<std::string, Fingerprint> expected;
  bool haveExpected = false;
  if (!o.writeExpected && fs::exists(expectedPath(o.seed))) {
    FingerprintFile file = loadFingerprints(expectedPath(o.seed));
    if (const auto it = file.find(w.name); it != file.end()) {
      expected = std::move(it->second);
      haveExpected = true;
    }
  }
  Gate gate(std::move(expected), haveExpected);

  // Cold starts, each with a fresh context; the passes reuse the last one.
  std::vector<double> setupS;
  std::vector<cfg::JobSpec> cells;
  std::unique_ptr<sim::SimContext> ctx;
  const int coldStarts = o.smoke ? 1 : 9;
  for (int k = 0; k < coldStarts; ++k) {
    setupS.push_back(coldStart(w, o.seed, o.smoke, cells, ctx, gate));
  }

  // Whole passes until the budget would be overrun, keeping room for the
  // traced pass (which costs a little more than an untraced one).
  const double reserve = o.trace ? 1.5 : 0.0;
  const bool onePass = o.smoke || o.writeExpected || !o.fingerprintsOut.empty();
  std::vector<PassStats> passes;
  do {
    passes.push_back(w.viaManifest ? runManifestPass(cells, outDir / (tag + "-sweep"), gate)
                                   : runBarePass(cells, *ctx, gate));
  } while (!onePass &&
           secondsSince(tStart) +
                   (1.0 + reserve) *
                       median(perPass(passes, [](const PassStats& p) { return p.gridS; })) <=
               o.seconds);

  std::vector<Metric> metrics = endToEndMetrics(passes, setupS);
  const std::size_t e2eCount = metrics.size();
  std::vector<Metric> layer = untracedLayerMetrics(passes);

  if (o.trace) {
    Tracer tracer;
    const TracedPass tp = runTracedPass(cells, *ctx, outDir / (tag + "-cells"), tracer, gate);
    std::vector<Metric> traced = tracedLayerMetrics(tracer, tp, passes);
    layer.insert(layer.end(), traced.begin(), traced.end());
    tracer.writeChromeJson(outDir / (tag + ".trace.json"), cells);
    const std::string table = tracer.selfTimeTable();
    std::ofstream(outDir / (tag + ".selftime.txt")) << table;
    std::printf("# %s self time of the traced pass (%zu cells)\n%s", w.name.c_str(),
                cells.size(), table.c_str());
  }
  metrics.insert(metrics.end(), layer.begin(), layer.end());
  const double failRatio = ratio(gate.failed(), gate.attempted());

  std::printf("# %s seed %llu: %zu cells x %zu pass%s, %llu cell runs\n", w.name.c_str(),
              static_cast<unsigned long long>(o.seed), cells.size(), passes.size(),
              passes.size() == 1 ? "" : "es", static_cast<unsigned long long>(gate.attempted()));
  for (const Metric& m : metrics) printMetric(w.name, m);
  printMetric(w.name, single("cell_fail_ratio", "ratio", failRatio));

  FingerprintFile mine;
  mine[w.name] = gate.seen();
  if (!o.fingerprintsOut.empty()) writeFingerprints(o.fingerprintsOut, o.seed, mine);
  if (o.writeExpected) {
    FingerprintFile file;
    if (fs::exists(expectedPath(o.seed))) file = loadFingerprints(expectedPath(o.seed));
    file[w.name] = gate.seen();
    writeFingerprints(expectedPath(o.seed), o.seed, file);
  }

  const bool correct = gate.failed() == 0;
  const fs::path jsonPath =
      o.jsonOut.empty() ? outDir / (tag + "-s" + std::to_string(o.seed) + ".result.json")
                        : fs::path(o.jsonOut);
  {
    std::ofstream out(jsonPath, std::ios::binary | std::ios::trunc);
    json::Writer jw(out, /*pretty=*/true);
    jw.beginObject();
    jw.field("schema", "lktm.e2e.result.v1");
    jw.field("workload", w.name);
    jw.field("seed", o.seed);
    jw.field("trace", o.trace);
    jw.field("smoke", o.smoke);
    jw.field("cells", static_cast<std::uint64_t>(cells.size()));
    jw.field("passes", static_cast<std::uint64_t>(passes.size()));
    jw.field("correct", correct);
    jw.field("attempted", gate.attempted());
    jw.field("failed", gate.failed());
    jw.field("cell_fail_ratio", failRatio);
    jw.key("metrics");
    writeMetricsObject(jw, metrics, /*detail=*/true);
    jw.endObject();
    out << "\n";
    if (!out) throw std::runtime_error("cannot write " + jsonPath.string());
  }
  std::printf("# result: %s\n", jsonPath.string().c_str());

  // The one-line summary: end-to-end metrics untraced, per-layer ones traced.
  const std::vector<Metric> summary =
      o.trace ? layer : std::vector<Metric>(metrics.begin(), metrics.begin() + e2eCount);
  std::ostringstream line;
  json::Writer lw(line, /*pretty=*/false);
  lw.beginObject();
  lw.field("correct", correct);
  lw.field("attempted", gate.attempted());
  lw.field("failed", gate.failed());
  lw.key("metrics");
  writeMetricsObject(lw, summary, /*detail=*/false);
  lw.endObject();
  std::printf("%s\n", line.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool list = false;
  if (argc == 2 && (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0)) {
    usage(stdout);
    return 0;
  }
  if (!parseArgs(argc, argv, o, list)) {
    usage(stderr);
    return 2;
  }
  const std::vector<Workload> workloads = allWorkloads();
  if (list) {
    for (const Workload& w : workloads) {
      std::printf("%-14s %3zu cells on %s\n", w.name.c_str(), planCells(w, o.seed, false).size(),
                  w.machine.c_str());
    }
    return 0;
  }
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) { return w.name == o.workload; });
  if (it == workloads.end()) {
    std::fprintf(stderr, "bench_e2e: unknown or missing --workload '%s'\n", o.workload.c_str());
    usage(stderr);
    return 2;
  }
  try {
    return run(o, *it);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
