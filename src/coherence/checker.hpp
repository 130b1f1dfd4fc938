// The one coherence rule set. Every whole-system coherence check runs it: the
// runner at the end of every run (MemorySystem::check), the test bed's
// expectCoherent, and the protocol model checker — its SWMR rule after every
// explored event, the full check() at every drained leaf. The rules: SWMR,
// value coherence of clean copies against the LLC, at most one dirty copy,
// directory owner/sharer agreement, no tx bits outside a transaction, and no
// busy directory line; the protocol's intentional laziness (silent clean-line
// drops leave stale directory hints) is tolerated.
#pragma once

#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"

namespace lktm::coh {

class CoherenceChecker {
 public:
  CoherenceChecker(std::vector<const L1Controller*> l1s, const DirectoryController* dir)
      : l1s_(std::move(l1s)), dir_(dir) {}

  /// Returns a list of violation descriptions; empty means all invariants hold.
  /// Preconditions: protocol quiescent (no in-flight messages, no busy lines).
  std::vector<std::string> check() const;

  /// The SWMR rule alone, which holds in every state, quiescent or not: an
  /// E/M copy of a line coexists with no other valid copy. Each violation
  /// lists the line's holders.
  std::vector<std::string> checkSwmr() const;

 private:
  std::vector<const L1Controller*> l1s_;
  const DirectoryController* dir_;
};

}  // namespace lktm::coh
