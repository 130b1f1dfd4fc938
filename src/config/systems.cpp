#include "config/systems.hpp"

#include <cstring>
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

/// Policy backing a backend-defined Table II row (tl2, hybrid). The backend
/// decides the execution path itself; the policy only has to agree with it
/// about whether the HTM hardware may be engaged.
TmPolicy policyForBackend(const char* backendName) {
  TmPolicy p;
  p.htmEnabled = std::strcmp(backendName, "tl2") != 0;  // tl2: pure software
  return p;
}
}  // namespace

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
  // Backend-defined rows (TL2-STM, Hybrid-TM): one per registry entry that
  // declares itself a Table II system, so paper_figures' Table II and this
  // list can never drift apart.
  for (const tm::BackendInfo& info : tm::backendRegistry()) {
    if (info.systemRow == nullptr) continue;
    out.push_back({info.systemRow, info.systemDesc, policyForBackend(info.name),
                   {}, info.name});
  }
  return out;
}

SystemSpec systemByName(const std::string& name) {
  for (auto& s : evaluatedSystems()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown system: " + name);
}

}  // namespace lktm::cfg
