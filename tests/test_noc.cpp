#include <gtest/gtest.h>

#include <vector>

#include "noc/ideal.hpp"
#include "noc/mesh.hpp"
#include "sim/context.hpp"

namespace lktm::noc {
namespace {

TEST(Mesh, HopCountsManhattan) {
  sim::SimContext sc;
  MeshNetwork net(sc, {});
  // 4x8 mesh: tile = col + row*8.
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(0, 7), 7u);   // across the top row
  EXPECT_EQ(net.hops(0, 24), 3u);  // down one column
  EXPECT_EQ(net.hops(0, 31), 10u); // opposite corner
  EXPECT_EQ(net.hops(5, 5 + 32), 0u);  // LLC bank co-located with its tile
}

TEST(Mesh, LocalDeliveryIsOneRouterHop) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshNetwork net(sc, {});
  Cycle at = 0;
  net.send(3, 3 + 32, kControlFlits, [&] { at = e.now(); });
  e.queue().runUntilDrained(1000);
  EXPECT_EQ(at, 1u);
}

TEST(Mesh, ControlLatencyMatchesPath) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshParams p;
  MeshNetwork net(sc, p);
  // src 0 -> dst 2: 2 hops. Injection router (1) then per hop:
  // link 1 + flits-1 (0) + router 1 = 2. Total = 1 + 2*2 = 5.
  Cycle at = 0;
  net.send(0, 2, kControlFlits, [&] { at = e.now(); });
  e.queue().runUntilDrained(1000);
  EXPECT_EQ(at, 5u);
}

TEST(Mesh, DataMessagesSerializeFlits) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshNetwork net(sc, {});
  Cycle ctrl = 0, data = 0;
  net.send(0, 1, kControlFlits, [&] { ctrl = e.now(); });
  e.queue().runUntilDrained(1000);
  sim::SimContext sc2;
  sim::Engine& e2 = sc2.engine();
  MeshNetwork net2(sc2, {});
  net2.send(0, 1, kDataFlits, [&] { data = e2.now(); });
  e2.queue().runUntilDrained(1000);
  EXPECT_EQ(data, ctrl + kDataFlits - 1);
}

TEST(Mesh, ContentionDelaysSecondMessage) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshNetwork net(sc, {});
  std::vector<Cycle> arrivals;
  net.send(0, 1, kDataFlits, [&] { arrivals.push_back(e.now()); });
  net.send(0, 1, kDataFlits, [&] { arrivals.push_back(e.now()); });
  e.queue().runUntilDrained(1000);
  ASSERT_EQ(arrivals.size(), 2u);
  // Second message waits for the first's flits on the shared link.
  EXPECT_GE(arrivals[1], arrivals[0] + kDataFlits);
}

TEST(Mesh, FifoPerSourceDestinationPair) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshNetwork net(sc, {});
  std::vector<int> order;
  // A 5-flit data message followed by a 1-flit control message on the same
  // path must not be overtaken (the protocol relies on this).
  net.send(0, 10, kDataFlits, [&] { order.push_back(1); });
  net.send(0, 10, kControlFlits, [&] { order.push_back(2); });
  e.queue().runUntilDrained(10000);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Mesh, DisjointPathsDontInterfere) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshNetwork net(sc, {});
  Cycle a = 0, b = 0;
  net.send(0, 1, kDataFlits, [&] { a = e.now(); });
  net.send(8, 9, kDataFlits, [&] { b = e.now(); });
  e.queue().runUntilDrained(1000);
  EXPECT_EQ(a, b);  // same relative geometry, no shared links
}

TEST(Mesh, CountsFlitHops) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshNetwork net(sc, {});
  net.send(0, 2, kDataFlits, [] {});
  e.queue().runUntilDrained(1000);
  const stats::StatSnapshot snap = sc.stats().snapshot();
  EXPECT_EQ(snap.value("noc.messages"), 1u);
  EXPECT_EQ(snap.value("noc.data_messages"), 1u);
  EXPECT_EQ(snap.value("noc.flit_hops"), kDataFlits * 3u);  // (2 hops + injection) * 5 flits
  // The hop histogram saw exactly one 2-hop message.
  const stats::SnapshotEntry* h = snap.find("noc.hops");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 2u);
}

TEST(Ideal, FixedLatency) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  IdealNetwork net(sc, 3);
  Cycle at = 0;
  net.send(0, 31, kControlFlits, [&] { at = e.now(); });
  e.queue().runUntilDrained(100);
  EXPECT_EQ(at, 3u);
}

TEST(Ideal, DataPaysSerialization) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  IdealNetwork net(sc, 3);
  Cycle at = 0;
  net.send(0, 31, kDataFlits, [&] { at = e.now(); });
  e.queue().runUntilDrained(100);
  EXPECT_EQ(at, 3u + kDataFlits - 1);
}


TEST(Ideal, FifoPerPairEvenWhenFlitsDiffer) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  IdealNetwork net(sc, 3);
  std::vector<int> order;
  net.send(0, 9, kDataFlits, [&] { order.push_back(1); });
  net.send(0, 9, kControlFlits, [&] { order.push_back(2); });  // would overtake
  e.queue().runUntilDrained(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Ideal, DistinctPairsIndependent) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  IdealNetwork net(sc, 3);
  Cycle a = 0, b = 0;
  net.send(0, 9, kDataFlits, [&] { a = e.now(); });
  net.send(1, 9, kControlFlits, [&] { b = e.now(); });
  e.queue().runUntilDrained(1000);
  EXPECT_LT(b, a);  // different source: no ordering constraint
}

class MeshAllPairsTest : public ::testing::TestWithParam<int> {};

TEST_P(MeshAllPairsTest, EveryDestinationReachable) {
  sim::SimContext sc;
  sim::Engine& e = sc.engine();
  MeshNetwork net(sc, {});
  const int src = GetParam();
  int delivered = 0;
  for (int dst = 0; dst < 64; ++dst) {
    net.send(src, dst, kControlFlits, [&] { ++delivered; });
  }
  e.queue().runUntilDrained(100000);
  EXPECT_EQ(delivered, 64);
}

INSTANTIATE_TEST_SUITE_P(Sources, MeshAllPairsTest,
                         ::testing::Values(0, 7, 24, 31, 32, 63));

}  // namespace
}  // namespace lktm::noc
