#include "config/systems.hpp"

#include <charconv>
#include <stdexcept>

#include "runtime/backends/backend.hpp"

namespace lktm::cfg {

namespace {
using core::ConflictPolicy;
using core::PriorityKind;
using core::RejectAction;
using core::TmPolicy;

TmPolicy cgl() {
  TmPolicy p;
  p.htmEnabled = false;
  return p;
}

TmPolicy baseline() {
  TmPolicy p;  // requester-wins, lock subscription — commercial best-effort
  return p;
}

TmPolicy losaSafu() {
  // LosaTM-SAFU approximation: NACK-style recovery with progression-based
  // priority and stall-and-wake conflict handling; no false-sharing or
  // capacity-overflow optimizations (that is the -SAFU configuration).
  TmPolicy p;
  p.conflict = ConflictPolicy::Recovery;
  p.rejectAction = RejectAction::WaitWakeup;
  p.priority = PriorityKind::Progression;
  return p;
}

TmPolicy recovery(RejectAction action, PriorityKind prio) {
  TmPolicy p;
  p.conflict = ConflictPolicy::Recovery;
  p.rejectAction = action;
  p.priority = prio;
  return p;
}

TmPolicy withHtmLock(TmPolicy p) {
  p.htmLock = true;
  return p;
}

TmPolicy withSwitching(TmPolicy p) {
  p.switching = true;
  return p;
}
}  // namespace

std::string SystemSpec::backendName() const {
  return backend.empty() ? tm::defaultBackendFor(policy) : backend;
}

std::vector<SystemSpec> evaluatedSystems() {
  std::vector<SystemSpec> out;
  out.push_back({"CGL", "Coarse-grained locking with the same granularity of transactions",
                 cgl(), {}});
  out.push_back({"Baseline", "Best-Effort HTM with requester-win", baseline(), {}});
  out.push_back({"LosaTM-SAFU",
                 "LosaTM without False Sharing and Capacity Overflow OPT",
                 losaSafu(), {}});
  out.push_back({"Lockiller-RAI", "Baseline + Recovery + SelfAbort + InstsBasedPriority",
                 recovery(RejectAction::SelfAbort, PriorityKind::InstsBased), {}});
  out.push_back({"Lockiller-RRI",
                 "Baseline + Recovery + SelfRetryLater + InstsBasedPriority",
                 recovery(RejectAction::RetryLater, PriorityKind::InstsBased), {}});
  out.push_back({"Lockiller-RWI", "Baseline + Recovery + WaitWakeup + InstsBasedPriority",
                 recovery(RejectAction::WaitWakeup, PriorityKind::InstsBased), {}});
  out.push_back({"Lockiller-RWL", "Baseline + Recovery + WaitWakeup + HTMLock",
                 withHtmLock(recovery(RejectAction::WaitWakeup, PriorityKind::None)), {}});
  out.push_back({"Lockiller-RWIL", "Lockiller-RWI + HTMLock",
                 withHtmLock(recovery(RejectAction::WaitWakeup, PriorityKind::InstsBased)),
                 {}});
  out.push_back(
      {"LockillerTM", "Lockiller-RWI + HTMLock + SwitchingMode",
       withSwitching(withHtmLock(recovery(RejectAction::WaitWakeup, PriorityKind::InstsBased))),
       {}});
  // Rows that are TM backends of their own. The backend decides the
  // execution path; the policy only agrees with it about whether the HTM
  // hardware may be engaged (tl2 is pure software).
  out.push_back({"TL2-STM",
                 "software TM baseline: TL2 global-version-clock, commit-time locking",
                 cgl(), {}, "tl2"});
  out.push_back({"Hybrid-TM",
                 "best-effort HTM with a TL2 software fallback instead of the global lock",
                 baseline(), {}, "hybrid"});
  return out;
}

namespace {

/// `text` as a canonical decimal (no sign, no leading zero, fits unsigned),
/// or 0 when it is not one.
unsigned canonicalUnsigned(const std::string& text) {
  unsigned n = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
  return ec == std::errc{} && std::to_string(n) == text ? n : 0;
}

/// Apply the policy tokens of `name` (everything from its first '+', at
/// `plus`) to `spec`, the configuration of the row the name starts with.
void applyPolicyTokens(SystemSpec& spec, const std::string& name, std::size_t plus) {
  const std::string row = spec.name;
  auto reject = [&](const std::string& why) {
    throw std::invalid_argument("system '" + name + "': " + why +
                                " (policy tokens, in this order, each at most once: " +
                                kPolicyTokenGrammar + ")");
  };
  // The retry loop runs only where HTM is attempted; the coarse-grained
  // lock is the cgl backend's only synchronization (the elision rows'
  // fallback lock and the software-TM backends ignore it).
  const bool attemptsHtm = spec.policy.htmEnabled;
  const bool takesCglLock = spec.backendName() == "cgl";
  int last = -1;  // grammar position of the previous token
  while (plus != std::string::npos) {
    const std::size_t end = name.find('+', plus + 1);
    const std::string tok =
        name.substr(plus + 1, end == std::string::npos ? end : end - plus - 1);
    plus = end;
    const std::string quoted = "'+" + tok + "'";
    int kind = 0;
    bool applies = false;
    bool restates = false;
    if (tok.starts_with("retries=")) {
      const unsigned n = canonicalUnsigned(tok.substr(8));
      if (n == 0) reject(quoted + " needs a budget N >= 1, written in decimal");
      kind = 0;
      applies = attemptsHtm;
      restates = n == spec.retry.maxRetries;
      spec.retry.maxRetries = n;
    } else if (tok == "noskip") {
      kind = 1;
      applies = attemptsHtm;
      restates = !spec.retry.skipRetriesOnPersistent;
      spec.retry.skipRetriesOnPersistent = false;
    } else if (tok == "lock=tts") {
      kind = 2;
      applies = takesCglLock;
      restates = spec.retry.cglLock == rt::LockImpl::TestAndSet;
      spec.retry.cglLock = rt::LockImpl::TestAndSet;
    } else if (tok == "sof") {
      kind = 3;
      applies = spec.policy.switching;
      restates = spec.policy.switchOnFault;
      spec.policy.switchOnFault = true;
    } else {
      reject("unknown policy token " + quoted);
    }
    if (kind <= last) reject(quoted + " is repeated or out of order");
    if (!applies) reject(row + " has no use for " + quoted);
    if (restates) reject(quoted + " restates " + row + "'s own value");
    last = kind;
  }
}

}  // namespace

SystemSpec systemByName(const std::string& name) {
  const std::size_t plus = name.find('+');
  const std::string row = name.substr(0, plus);
  for (auto& s : evaluatedSystems()) {
    if (s.name != row) continue;
    applyPolicyTokens(s, name, plus);
    s.name = name;
    return s;
  }
  throw std::invalid_argument("unknown system: " + name);
}

}  // namespace lktm::cfg
