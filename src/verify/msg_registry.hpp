// Exact registry of in-flight coherence messages, fed by the MsgTap hook on
// the SimContext (coh::post reports every send and delivery). The model
// checker needs it twice: canonical state fingerprints must cover messages
// that have left a sender but not yet reached a receiver, and several
// invariants ("no lost wakeup", "reject implies lower priority") are only
// precise when checked against what is actually on the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "coherence/messages.hpp"
#include "sim/state_hash.hpp"

namespace lktm::verify {

class MsgRegistry final : public coh::MsgTap {
 public:
  struct InFlight {
    coh::MsgType type{};
    LineAddr line = 0;
    noc::NodeId src = 0;
    noc::NodeId dst = 0;
    std::uint64_t fingerprint = 0;
  };

  using Hook = std::function<void(const coh::Msg&, noc::NodeId, noc::NodeId)>;

  void onSend(const coh::Msg& msg, noc::NodeId src, noc::NodeId dst) override;
  void onDeliver(const coh::Msg& msg, noc::NodeId src, noc::NodeId dst) override;

  /// Observe message events without disturbing the registry (the checker uses
  /// these for event-level invariants and for counterexample traces).
  void setSendHook(Hook hook) { sendHook_ = std::move(hook); }
  void setDeliverHook(Hook hook) { deliverHook_ = std::move(hook); }

  bool empty() const { return inFlight_.empty(); }
  std::size_t size() const { return inFlight_.size(); }
  void clear() { inFlight_.clear(); }

  /// Is a message of `type` for `line` on the wire to node `dst`? (L1 node
  /// ids equal core ids, so this answers "is a Wakeup in flight to core c".)
  bool anyInFlightTo(noc::NodeId dst, coh::MsgType type, LineAddr line) const;

  /// Fold the in-flight set into a state fingerprint, order-independently:
  /// per-message (fingerprint, src, dst) hashes are sorted before folding, so
  /// two schedules that put the same messages on the wire in different send
  /// order canonicalize identically.
  void hashState(sim::StateHasher& h) const;

 private:
  std::vector<InFlight> inFlight_;
  Hook sendHook_;
  Hook deliverHook_;
};

}  // namespace lktm::verify
