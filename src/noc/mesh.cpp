#include "noc/mesh.hpp"

#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

namespace lktm::noc {

namespace {
enum Dir : unsigned { E = 0, W = 1, N = 2, S = 3 };
}

MeshParams MeshParams::forTiles(unsigned tiles) {
  MeshParams p;
  if (tiles == 0) {
    throw std::invalid_argument("mesh geometry needs at least one tile");
  }
  unsigned rows = 1;
  for (unsigned r = 1; r * r <= tiles; ++r) {
    if (tiles % r == 0) rows = r;
  }
  p.rows = rows;
  p.cols = tiles / rows;
  return p;
}

MeshNetwork::MeshNetwork(sim::SimContext& ctx, MeshParams params)
    : Network(ctx),
      engine_(ctx.engine()),
      pool_(ctx.pool<MeshPacket>()),
      params_(params),
      linkFree_(numTiles()),
      hopsHist_(ctx.stats().histogram("noc.hops")) {  // mesh hops per message
  if (params_.cols == 0 || params_.rows == 0) {
    throw std::invalid_argument(
        "mesh geometry must have at least one column and one row, got " +
        std::to_string(params_.cols) + "x" + std::to_string(params_.rows));
  }
}

unsigned MeshNetwork::hops(NodeId src, NodeId dst) const {
  const Pos a = posOf(tileOf(src));
  const Pos b = posOf(tileOf(dst));
  return static_cast<unsigned>(std::abs(static_cast<int>(a.x) - static_cast<int>(b.x)) +
                               std::abs(static_cast<int>(a.y) - static_cast<int>(b.y)));
}

void MeshNetwork::send(NodeId src, NodeId dst, unsigned flits,
                       sim::Action onArrive) {
  const unsigned srcTile = tileOf(src);
  const unsigned dstTile = tileOf(dst);
  const unsigned h = hops(src, dst);
  count(flits, h + 1);
  hopsHist_.record(h);
  if (srcTile == dstTile) {
    // Local: through the tile's router once (e.g. L1 to co-located LLC bank).
    engine_.schedule(params_.routerLatency, std::move(onArrive));
    return;
  }
  // Injection takes one router traversal; then hop along the X-Y path.
  MeshPacket* p = pool_.acquire();
  p->tile = srcTile;
  p->dstTile = dstTile;
  p->flits = flits;
  p->hopCount = 0;
  p->onArrive = std::move(onArrive);
  engine_.schedule(params_.routerLatency, [this, p] { step(p); });
}

void MeshNetwork::step(MeshPacket* p) {
  assert(p->hopCount < params_.cols + params_.rows && "routing loop");
  if (p->tile == p->dstTile) {
    sim::Action fn = std::move(p->onArrive);
    pool_.recycle(p);
    fn();
    return;
  }
  const Pos here = posOf(p->tile);
  const Pos dst = posOf(p->dstTile);
  unsigned dir;
  unsigned next;
  if (here.x != dst.x) {  // X first
    dir = here.x < dst.x ? E : W;
    next = dir == E ? p->tile + 1 : p->tile - 1;
  } else {
    dir = here.y < dst.y ? S : N;
    next = dir == S ? p->tile + params_.cols : p->tile - params_.cols;
  }
  // Store-and-forward: the message leaves when the link is free, occupies it
  // for `flits` cycles, and is fully received linkLatency + flits - 1 later.
  const Cycle now = engine_.now();
  Cycle& nextFree = linkFree_[p->tile][dir];
  const Cycle depart = std::max(now, nextFree);
  nextFree = depart + p->flits;
  const Cycle arrive = depart + params_.linkLatency + p->flits - 1 + params_.routerLatency;
  p->tile = next;
  ++p->hopCount;
  engine_.queue().scheduleAt(arrive, [this, p] { step(p); });
}

}  // namespace lktm::noc
