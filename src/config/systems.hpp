// The evaluated systems of the paper's Table II.
#pragma once

#include <string>
#include <vector>

#include "core/conflict_manager.hpp"
#include "runtime/retry_policy.hpp"

namespace lktm::cfg {

struct SystemSpec {
  std::string name;
  std::string description;
  core::TmPolicy policy{};
  rt::RetryPolicy retry{};
  /// TM backend this row runs on. Empty = pick from the policy
  /// (tm::defaultBackendFor); a machine-name `-be=` suffix overrides both.
  std::string backend;
};

/// All eleven evaluated rows: the paper's Table II in paper order
/// (CGL, Baseline, LosaTM-SAFU, Lockiller-RAI, -RRI, -RWI, -RWL, -RWIL,
/// LockillerTM) plus one row per backend-defined system from the backend
/// registry (TL2-STM, Hybrid-TM).
std::vector<SystemSpec> evaluatedSystems();

/// The policy tokens a system name may carry after its row name, in the one
/// order they may appear, each at most once:
///   +retries=N  software attempt budget (N >= 1; rows that attempt HTM)
///   +noskip     retry persistent aborts too (rows that attempt HTM)
///   +lock=tts   test-and-test-and-set instead of MCS (CGL)
///   +sof        switch-on-fault extension (rows with switchingMode)
inline constexpr const char* kPolicyTokenGrammar = "+retries=N +noskip +lock=tts +sof";

/// Look up an evaluated row by name, optionally followed by policy tokens
/// ("Baseline+retries=4+noskip", "LockillerTM+sof"). The returned spec's
/// name is `name`: every configuration has exactly one name. Throws
/// std::invalid_argument on an unknown row, an unknown or misplaced token, a
/// token the row cannot use, or a token that restates the row's own value.
SystemSpec systemByName(const std::string& name);

}  // namespace lktm::cfg
