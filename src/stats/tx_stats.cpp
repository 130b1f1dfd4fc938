#include "stats/tx_stats.hpp"

#include "stats/path.hpp"

namespace lktm::stats {

const char* abortCauseSlug(AbortCause c) {
  switch (c) {
    case AbortCause::None: return "none";
    case AbortCause::MemConflict: return "mem_conflict";
    case AbortCause::LockConflict: return "lock_conflict";
    case AbortCause::Mutex: return "mutex";
    case AbortCause::NonTran: return "non_tran";
    case AbortCause::Overflow: return "overflow";
    case AbortCause::Fault: return "fault";
    case AbortCause::Explicit: return "explicit";
  }
  return "?";
}

const char* timeCatSlug(TimeCat c) {
  switch (c) {
    case TimeCat::Htm: return "htm";
    case TimeCat::Aborted: return "aborted";
    case TimeCat::Lock: return "lock";
    case TimeCat::SwitchLock: return "switch_lock";
    case TimeCat::NonTran: return "non_tran";
    case TimeCat::WaitLock: return "wait_lock";
    case TimeCat::Rollback: return "rollback";
    case TimeCat::kCount: break;
  }
  return "?";
}

std::optional<double> commitRate(std::uint64_t htmCommits, std::uint64_t swCommits,
                                 std::uint64_t aborts) {
  const std::uint64_t attempts = htmCommits + swCommits + aborts;
  if (attempts == 0) return std::nullopt;
  return static_cast<double>(htmCommits + swCommits) / static_cast<double>(attempts);
}

namespace {

std::array<Counter*, TxStats::kCauses> registerCauses(StatRegistry& reg,
                                                      const std::string& prefix) {
  std::array<Counter*, TxStats::kCauses> out{};
  for (std::size_t i = 0; i < TxStats::kCauses; ++i) {
    const auto cause = static_cast<AbortCause>(i);
    out[i] = &reg.counter(statPath(prefix, "aborts", abortCauseSlug(cause)));
  }
  return out;
}

}  // namespace

TxStats::TxStats(StatRegistry& reg, const std::string& prefix)
    // commits.htm: committed speculatively; commits.lock: critical sections
    // completed in TL mode; commits.stl: switched (STL) and committed;
    // commits.stm: committed on the software (TL2) path.
    : htmCommits(reg.counter(statPath(prefix, "commits.htm"))),
      lockCommits(reg.counter(statPath(prefix, "commits.lock"))),
      stlCommits(reg.counter(statPath(prefix, "commits.stl"))),
      stmCommits(reg.counter(statPath(prefix, "commits.stm"))),
      aborts(reg.counter(statPath(prefix, "aborts.total"))),
      abortsByCause(registerCauses(reg, prefix)),
      switchAttempts(reg.counter(statPath(prefix, "switch.attempts"))),
      switchGrants(reg.counter(statPath(prefix, "switch.grants"))),
      // Recovery: toxic requests this core revoked.
      rejectsSent(reg.counter(statPath(prefix, "rejects.sent"))),
      rejectsReceived(reg.counter(statPath(prefix, "rejects.received"))),
      wakeupsSent(reg.counter(statPath(prefix, "wakeups.sent"))) {}

}  // namespace lktm::stats
