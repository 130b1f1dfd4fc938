#include "noc/network.hpp"

namespace lktm::noc {

Network::Network(sim::SimContext& ctx)
    : messages_(ctx.stats().counter("noc.messages")),
      // Messages carrying a cache line.
      dataMessages_(ctx.stats().counter("noc.data_messages")),
      // Sum over messages of flits * hops.
      flitHops_(ctx.stats().counter("noc.flit_hops")) {}

}  // namespace lktm::noc
