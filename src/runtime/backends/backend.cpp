#include "runtime/backends/backend.hpp"

#include <stdexcept>

#include "runtime/backends/hybrid.hpp"
#include "runtime/backends/lockiller.hpp"
#include "runtime/backends/tl2.hpp"

namespace lktm::tm {

const std::vector<BackendInfo>& backendRegistry() {
  static const std::vector<BackendInfo> kRegistry = {
      {"lockiller",
       "HTM lock elision per the system's Table II policy (Listings 1/2)"},
      {"cgl", "plain coarse-grained locking, HTM never engaged"},
      {"tl2",
       "TL2-style software TM: versioned orecs, global commit clock, redo log"},
      {"hybrid",
       "best-effort HTM falling back to the TL2 software path on "
       "capacity/conflict aborts"},
  };
  return kRegistry;
}

std::vector<std::string> backendNames() {
  std::vector<std::string> names;
  names.reserve(backendRegistry().size());
  for (const BackendInfo& info : backendRegistry()) names.emplace_back(info.name);
  return names;
}

bool isBackendName(const std::string& name) {
  for (const BackendInfo& info : backendRegistry()) {
    if (name == info.name) return true;
  }
  return false;
}

std::string backendNameList() {
  std::string out;
  for (const BackendInfo& info : backendRegistry()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

std::string defaultBackendFor(const core::TmPolicy& policy) {
  return policy.htmEnabled ? "lockiller" : "cgl";
}

HtmAttempt emitHtmAttemptStart(cpu::ProgramBuilder& b,
                               const rt::RetryPolicy& retry,
                               const HtmLoopRegs& regs) {
  if (retry.maxRetries == 0) {
    throw std::invalid_argument(
        "RetryPolicy::maxRetries must be at least 1 for an HTM attempt loop "
        "(0 would retry forever and never take the fallback path)");
  }
  b.li(regs.retries, static_cast<std::int64_t>(retry.maxRetries));
  const auto retryLabel = b.here();
  b.xbegin(regs.status);
  b.li(regs.scratch, static_cast<std::int64_t>(cpu::kTxStarted));
  return {retryLabel, b.beq(regs.status, regs.scratch)};
}

std::vector<std::size_t> emitHtmAttemptRetry(cpu::ProgramBuilder& b,
                                             const rt::RetryPolicy& retry,
                                             const HtmLoopRegs& regs,
                                             cpu::ProgramBuilder::Label retryLabel) {
  b.addi(regs.retries, regs.retries, -1);
  std::vector<std::size_t> giveUp;
  if (retry.skipRetriesOnPersistent) {
    for (AbortCause cause : {AbortCause::Overflow, AbortCause::Fault}) {
      b.li(regs.scratch, static_cast<std::int64_t>(cpu::statusOf(cause)));
      giveUp.push_back(b.beq(regs.status, regs.scratch));
    }
  }
  giveUp.push_back(b.beq(regs.retries, cpu::kZeroReg));
  b.compute(static_cast<std::int64_t>(retry.backoff));
  b.jmp(retryLabel);
  return giveUp;
}

std::unique_ptr<Backend> makeBackend(const std::string& name,
                                     const BackendConfig& cfg) {
  if (name == "lockiller" || name == "cgl") {
    return std::make_unique<LockillerBackend>(cfg, name == "cgl");
  }
  if (name == "tl2") return std::make_unique<Tl2Backend>(cfg);
  if (name == "hybrid") return std::make_unique<HybridBackend>(cfg);
  throw std::invalid_argument("unknown TM backend '" + name +
                              "' (valid: " + backendNameList() + ")");
}

}  // namespace lktm::tm
