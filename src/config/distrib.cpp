#include "config/distrib.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "config/artifact.hpp"
#include "stats/json.hpp"

namespace lktm::cfg {

namespace {

namespace fs = std::filesystem;
using stats::json::Value;

double unixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Exclusive create (seeding only): O_CREAT|O_EXCL so exactly one of any
/// number of racing seeders materializes the entry; the rest see EEXIST and
/// move on. All steady-state transitions use rename, not this.
bool exclusiveCreate(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

std::string claimJson(const std::string& id, const std::string& worker,
                      unsigned attempts) {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/false);
  w.beginObject();
  w.field("id", id);
  w.field("worker", worker);
  w.field("attempts", attempts);
  w.endObject();
  return os.str();
}

/// done/<stem>: the manifest's job entry plus the worker that finished it.
std::string doneJson(const JobRecord& j, const std::string& worker) {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/false);
  w.beginObject();
  writeJobFields(w, j);
  w.field("worker", worker);
  w.endObject();
  return os.str();
}

/// Tolerant read for claim tokens and heartbeats: they can legitimately be
/// mid-transition ({"id","attempts"} without an owner) or, worst case,
/// unreadable — every field falls back to a safe default rather than
/// throwing inside a scan. done/ records are terminal and read strictly.
Value readSpoolFile(const fs::path& path) {
  try {
    return stats::json::parse(readFile(path.string()));
  } catch (const std::exception&) {
    return {};
  }
}

std::string textOr(const Value& v, const char* key) {
  const Value* f = v.find(key);
  return f != nullptr && f->isString() ? f->text : "";
}

std::uint64_t u64Or(const Value& v, const char* key) {
  const Value* f = v.find(key);
  return f != nullptr ? stats::json::asU64(*f) : 0;
}

double numberOr(const Value& v, const char* key) {
  const Value* f = v.find(key);
  return f != nullptr && f->isNumber() ? f->number : 0.0;
}

ClaimRecord claimRecordOf(const std::string& file, const Value& v) {
  return ClaimRecord{file, textOr(v, "id"), textOr(v, "worker"),
                     static_cast<unsigned>(u64Or(v, "attempts"))};
}

std::vector<std::string> listDirSorted(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!name.empty() && name[0] != '.') names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

std::size_t jobShard(const JobSpec& spec, std::uint64_t numShards) {
  if (numShards <= 1) return 0;
  std::uint64_t h =
      jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  for (const char c : spec.machine) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % numShards);
}

ClaimStore::ClaimStore(std::string root, std::string workerId)
    : root_(std::move(root)), workerId_(std::move(workerId)) {}

void ClaimStore::init() const {
  std::error_code ec;
  for (const char* sub : {"todo", "claimed", "done", "hb"}) {
    fs::create_directories(fs::path(root_) / sub, ec);
    if (ec) {
      throw std::runtime_error("cannot create claim directory " +
                               (fs::path(root_) / sub).string() + ": " +
                               ec.message());
    }
  }
}

std::size_t ClaimStore::seed(const SweepManifest& manifest) const {
  std::size_t created = 0;
  for (const JobRecord& j : manifest.jobs) {
    const std::string f = jobFileStem(j.spec);
    if (doneExists(f) || todoExists(f) ||
        fs::exists(fs::path(root_) / "claimed" / f)) {
      continue;
    }
    const bool okWithArtifact = j.state == JobState::Ok && !j.artifact.empty() &&
                                fs::exists(fs::path(j.artifact));
    const bool terminalFailure = j.state == JobState::Failed ||
                                 j.state == JobState::Hang ||
                                 j.state == JobState::Timeout;
    if (okWithArtifact || terminalFailure) {
      JobRecord done = j;
      if (!okWithArtifact) done.artifact.clear();
      created += exclusiveCreate((fs::path(root_) / "done" / f).string(),
                                 doneJson(done, workerId_))
                     ? 1
                     : 0;
    } else {
      // Pending / stale Running / Ok-with-lost-artifact: (re)run it. The
      // token carries the cumulative attempt count forward.
      created += exclusiveCreate((fs::path(root_) / "todo" / f).string(),
                                 claimJson(j.spec.id(), "", j.attempts))
                     ? 1
                     : 0;
    }
  }
  return created;
}

bool ClaimStore::take(const std::string& file, ClaimRecord& out) const {
  const std::string from = (fs::path(root_) / "todo" / file).string();
  const std::string to = (fs::path(root_) / "claimed" / file).string();
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) return false;  // lost the race (or the token was already gone)
  out = claimRecordOf(file, readSpoolFile(to));
  out.worker = workerId_;
  publishClaim(out);
  return true;
}

void ClaimStore::publishClaim(const ClaimRecord& c) const {
  writeFileAtomic((fs::path(root_) / "claimed" / c.file).string(),
                  claimJson(c.id, c.worker, c.attempts), workerId_);
}

bool ClaimStore::markDone(const JobRecord& j) const {
  const std::string f = jobFileStem(j.spec);
  if (!writeFileAtomic((fs::path(root_) / "done" / f).string(), doneJson(j, workerId_),
                       workerId_)) {
    return false;
  }
  std::error_code ec;
  fs::remove(fs::path(root_) / "claimed" / f, ec);
  return true;
}

bool ClaimStore::reclaim(const std::string& file) const {
  std::error_code ec;
  if (doneExists(file)) {
    // The owner finished but died before unclaiming: done/ wins, the claim
    // is garbage.
    fs::remove(fs::path(root_) / "claimed" / file, ec);
    return false;
  }
  fs::rename(fs::path(root_) / "claimed" / file, fs::path(root_) / "todo" / file,
             ec);
  return !ec;
}

void ClaimStore::writeHeartbeat(std::uint64_t seq) const {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/false);
  w.beginObject();
  w.field("worker", workerId_);
  w.field("seq", seq);
  w.field("unix_seconds", unixNow());
  w.endObject();
  writeFileAtomic((fs::path(root_) / "hb" / workerId_).string(), os.str(),
                  workerId_);
}

std::vector<std::string> ClaimStore::listTodo() const {
  return listDirSorted((fs::path(root_) / "todo").string());
}

std::vector<ClaimRecord> ClaimStore::listClaimed() const {
  std::vector<ClaimRecord> out;
  for (const std::string& f :
       listDirSorted((fs::path(root_) / "claimed").string())) {
    out.push_back(claimRecordOf(f, readSpoolFile(fs::path(root_) / "claimed" / f)));
  }
  return out;
}

bool ClaimStore::readDone(const std::string& file, JobRecord& out,
                          std::string* worker) const {
  const fs::path path = fs::path(root_) / "done" / file;
  if (!fs::exists(path)) return false;
  try {
    const Value v = stats::json::parse(readFile(path.string()));
    out = jobRecordFromJson(v);
    if (worker != nullptr) *worker = stats::json::needString(v, "worker");
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("malformed done record " + path.string() + ": " + e.what());
  }
  return true;
}

std::vector<HeartbeatRecord> ClaimStore::listHeartbeats() const {
  std::vector<HeartbeatRecord> out;
  for (const std::string& f : listDirSorted((fs::path(root_) / "hb").string())) {
    const Value v = readSpoolFile(fs::path(root_) / "hb" / f);
    out.push_back(HeartbeatRecord{f, u64Or(v, "seq"), numberOr(v, "unix_seconds")});
  }
  return out;
}

bool ClaimStore::todoExists(const std::string& file) const {
  return fs::exists(fs::path(root_) / "todo" / file);
}

bool ClaimStore::doneExists(const std::string& file) const {
  return fs::exists(fs::path(root_) / "done" / file);
}

std::size_t ClaimStore::doneCount() const {
  return listDirSorted((fs::path(root_) / "done").string()).size();
}

void ClaimStore::discardTodo(const std::string& file) const {
  std::error_code ec;
  fs::remove(fs::path(root_) / "todo" / file, ec);
}

std::size_t foldClaimState(SweepManifest& manifest, const std::string& claimDir) {
  if (claimDir.empty() || !fs::exists(claimDir)) return 0;
  const ClaimStore store(claimDir, "fold");
  std::size_t folded = 0;
  for (JobRecord& j : manifest.jobs) {
    const std::string f = jobFileStem(j.spec);
    JobRecord done;
    if (store.readDone(f, done)) {
      if (!(done.spec == j.spec)) {
        throw std::runtime_error("done record " + f + " is job " + done.spec.id() +
                                 ", not " + j.spec.id());
      }
      j = std::move(done);
      ++folded;
      continue;
    }
    if (fs::exists(fs::path(claimDir) / "claimed" / f)) {
      j.state = JobState::Running;
      continue;
    }
    if (store.todoExists(f)) j.state = JobState::Pending;
  }
  return folded;
}

OrchestratorReport runWorker(SweepManifest& manifest, const WorkerOptions& wopts,
                             const OrchestratorOptions& opts,
                             const JobRunner& runner) {
  if (wopts.workerId.empty()) {
    throw std::invalid_argument("runWorker: worker id must not be empty");
  }
  if (wopts.claimDir.empty()) {
    throw std::invalid_argument("runWorker: claim directory must not be empty");
  }
  const ClaimStore store(wopts.claimDir, wopts.workerId);
  store.init();
  store.seed(manifest);

  // Claim preference: own shard in manifest order, then everyone else's
  // (work stealing keeps a dead worker's slice from stranding the sweep).
  const std::uint64_t shards = std::max<std::uint64_t>(1, manifest.shards);
  std::size_t myShard = wopts.shard;
  if (myShard == WorkerOptions::kAutoShard) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : wopts.workerId) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    myShard = static_cast<std::size_t>(h % shards);
  } else {
    myShard %= shards;
  }
  std::vector<std::string> stems(manifest.jobs.size());
  std::vector<std::size_t> order;
  order.reserve(manifest.jobs.size());
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    stems[i] = jobFileStem(manifest.jobs[i].spec);
    if (jobShard(manifest.jobs[i].spec, shards) == myShard) order.push_back(i);
  }
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    if (jobShard(manifest.jobs[i].spec, shards) != myShard) order.push_back(i);
  }

  // Heartbeat thread: the claim this process holds must look alive for as
  // long as the process is, even while a job runs for minutes.
  std::mutex hbMu;
  std::condition_variable hbCv;
  bool hbStop = false;
  store.writeHeartbeat(0);
  std::thread hbThread([&] {
    std::uint64_t seq = 1;
    std::unique_lock<std::mutex> lk(hbMu);
    const auto period = std::chrono::duration<double>(
        std::max(0.05, wopts.heartbeatSeconds));
    while (!hbCv.wait_for(lk, period, [&] { return hbStop; })) {
      store.writeHeartbeat(seq++);
    }
  });

  // Foreign-claim staleness bookkeeping: fingerprint = owner + its heartbeat
  // seq (or the raw claim content while ownerless). Reclaim only when the
  // fingerprint has been frozen for leaseSeconds of OUR steady clock — no
  // cross-host clock comparison anywhere.
  struct Watch {
    std::string fingerprint;
    std::chrono::steady_clock::time_point since;
  };
  std::map<std::string, Watch> watched;

  auto heartbeatFingerprint = [&](const ClaimRecord& c) -> std::string {
    if (c.worker.empty()) {
      return "unowned#" + c.id + "#" + std::to_string(c.attempts);
    }
    for (const HeartbeatRecord& h : store.listHeartbeats()) {
      if (h.worker == c.worker) {
        return c.worker + "#" + std::to_string(h.seq);
      }
    }
    return c.worker + "#missing";
  };

  // The spool claim source; the executor calls every hook under its lock.
  detail::ClaimSource source;
  source.capacity = manifest.jobs.size();
  source.writer = wopts.workerId;
  source.pollSeconds = std::max(0.01, wopts.pollSeconds);
  source.claim = [&]() -> std::ptrdiff_t {
    const std::vector<std::string> todoList = store.listTodo();
    for (const std::size_t i : order) {
      if (std::find(todoList.begin(), todoList.end(), stems[i]) == todoList.end()) {
        continue;
      }
      if (store.doneExists(stems[i])) {
        // Leftover token from a spurious reclaim that raced a finish; the
        // result exists, never run it again.
        store.discardTodo(stems[i]);
        continue;
      }
      ClaimRecord c;
      if (store.take(stems[i], c)) {
        watched.erase(stems[i]);
        manifest.jobs[i].attempts = c.attempts;  // the inherited retry budget
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    // Nothing takeable: look for claims whose owner stopped heartbeating. A
    // reclaimed job is back in todo/ and gets taken on the next poll.
    const auto now = std::chrono::steady_clock::now();
    for (const ClaimRecord& c : store.listClaimed()) {
      if (c.worker == wopts.workerId) continue;  // our own pool threads
      if (store.doneExists(c.file)) {
        store.reclaim(c.file);  // drops the stale claim, done/ wins
        continue;
      }
      const std::string fp = heartbeatFingerprint(c);
      const auto it = watched.find(c.file);
      if (it == watched.end() || it->second.fingerprint != fp) {
        watched[c.file] = Watch{fp, now};
        continue;
      }
      const double frozen =
          std::chrono::duration<double>(now - it->second.since).count();
      if (frozen >= wopts.leaseSeconds) {
        if (store.reclaim(c.file) && opts.progress != nullptr) {
          *opts.progress << "reclaimed " << c.id << " from dead worker \""
                         << c.worker << "\" (heartbeat frozen "
                         << static_cast<long>(frozen) << "s)\n";
        }
        watched.erase(c.file);
      }
    }
    return store.doneCount() >= manifest.jobs.size() ? detail::kNoMoreJobs
                                                     : detail::kPollAgain;
  };
  // Keep the published claim's attempt count current so a reclaim after OUR
  // death hands the next owner the true remaining budget.
  source.attemptStarted = [&](std::size_t i) {
    store.publishClaim(ClaimRecord{stems[i], manifest.jobs[i].spec.id(),
                                   wopts.workerId, manifest.jobs[i].attempts});
  };
  source.finished = [&](std::size_t i) {
    store.markDone(manifest.jobs[i]);
  };
  source.doneCount = [&] { return store.doneCount(); };

  OrchestratorReport report = detail::executeJobs(manifest, opts, runner, source, nullptr);

  {
    std::lock_guard<std::mutex> lock(hbMu);
    hbStop = true;
  }
  hbCv.notify_all();
  hbThread.join();

  // Fold the whole spool back so the caller's manifest reflects every
  // worker's results, not just ours.
  foldClaimState(manifest, wopts.claimDir);
  report.ok = manifest.countIn(JobState::Ok);
  report.failed = manifest.countIn(JobState::Failed) + manifest.countIn(JobState::Hang) +
                  manifest.countIn(JobState::Timeout);
  report.skipped = manifest.jobs.size() - report.ran;
  return report;
}

}  // namespace lktm::cfg
