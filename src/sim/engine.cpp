#include "sim/engine.hpp"

#include <sstream>

namespace lktm {

const char* toString(AbortCause c) {
  switch (c) {
    case AbortCause::None: return "none";
    case AbortCause::MemConflict: return "mc";
    case AbortCause::LockConflict: return "lock";
    case AbortCause::Mutex: return "mutex";
    case AbortCause::NonTran: return "non_tran";
    case AbortCause::Overflow: return "of";
    case AbortCause::Fault: return "fault";
    case AbortCause::Explicit: return "explicit";
  }
  return "?";
}

const char* toString(TimeCat c) {
  switch (c) {
    case TimeCat::Htm: return "htm";
    case TimeCat::Aborted: return "aborted";
    case TimeCat::Lock: return "lock";
    case TimeCat::SwitchLock: return "switchLock";
    case TimeCat::NonTran: return "non_tran";
    case TimeCat::WaitLock: return "waitlock";
    case TimeCat::Rollback: return "rollback";
    case TimeCat::kCount: break;
  }
  return "?";
}

const char* toString(TxMode m) {
  switch (m) {
    case TxMode::None: return "none";
    case TxMode::Htm: return "htm";
    case TxMode::TL: return "TL";
    case TxMode::STL: return "STL";
  }
  return "?";
}

}  // namespace lktm

namespace lktm::sim {

void Engine::run(Cycle maxCycles) {
  lastProgress_ = q_.now();
  limit_ = q_.now() + maxCycles;
  q_.setDeadline(deadline());
  auto diagnose = [this](std::ostringstream& oss) {
    for (const auto& d : diagnostics_) oss << "\n  " << d();
  };
  while (q_.runOne()) {
    if (q_.now() - lastProgress_ > watchdogWindow_ || q_.now() > limit_) {
      q_.settleParked();
      std::ostringstream oss;
      if (q_.now() > limit_) {
        oss << "simulation exceeded cycle budget (" << maxCycles << " cycles)";
        diagnose(oss);
        throw SimulationTimeout(oss.str());
      }
      oss << "watchdog: no forward progress for " << watchdogWindow_
          << " cycles (now=" << q_.now() << ")";
      diagnose(oss);
      throw SimulationHang(oss.str());
    }
  }
  q_.setDeadline(EventQueue::kNever);
}

}  // namespace lktm::sim
