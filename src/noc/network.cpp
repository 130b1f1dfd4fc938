#include "noc/network.hpp"

namespace lktm::noc {

Network::Network(sim::SimContext& ctx)
    : messages_(ctx.stats().counter("noc.messages")),
      // Messages carrying a cache line.
      dataMessages_(ctx.stats().counter("noc.data_messages")),
      // Sum over messages of flits * hops.
      flitHops_(ctx.stats().counter("noc.flit_hops")) {
  // Registry-owned handles stay valid for the registration's lifetime, and
  // the formula is cleared together with them on the next beginRun().
  ctx.stats().formula("noc.avg_flit_hops_per_msg", [m = &messages_, f = &flitHops_] {
    return m->value() == 0
               ? 0.0
               : static_cast<double>(f->value()) / static_cast<double>(m->value());
  });
}

}  // namespace lktm::noc
