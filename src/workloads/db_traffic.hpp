// Database-shaped traffic: skewed, structured, latency-sensitive workload
// generators in the style of YCSB, DBx1000's TPC-C, and the Benchmark{SPS,
// PartDisjoint} harnesses. Every generator emits through the tm::Backend
// registry (static addresses only, so tl2/hybrid run them too) and carries a
// closed-form conservation invariant for verify(). Together with the
// per-core commit-latency histograms these are the substrate for the
// tail-latency (p50/p99/p999) view of LockillerTM's lower-bound claim. The
// canonical parameterizations the sweeps run are rows of wl::workloadTable().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workloads/workload.hpp"

namespace lktm::wl {

/// YCSB-style keyed row store: one cache line per row, keys drawn from a
/// seeded Zipfian(theta). `readPct` of ops read a row, the rest increment
/// it; `scanPct` of transactions instead scan `scanLen` consecutive rows.
std::unique_ptr<Workload> makeYcsb(std::string name, unsigned rows, double theta,
                                   unsigned readPct, unsigned scanPct,
                                   unsigned opsPerTx, unsigned scanLen,
                                   unsigned totalTxs, std::uint64_t seed);

/// TPC-C-lite: new-order and payment transactions over warehouse / district /
/// customer / item-stock rows, customers and items drawn Zipfian-skewed.
std::unique_ptr<Workload> makeTpccLite(unsigned warehouses, unsigned districts,
                                       unsigned customers, unsigned items,
                                       unsigned totalTxs, std::uint64_t seed);

/// SPS integer-swap stressor: each transaction atomically swaps two cells.
/// `partDisjoint` splits the array into per-thread slices (conflict-free by
/// construction); otherwise every thread swaps over the whole array
/// (all-conflicting). The value multiset is conserved iff swaps are atomic.
std::unique_ptr<Workload> makeSps(bool partDisjoint, unsigned cells,
                                  unsigned totalTxs, std::uint64_t seed);

}  // namespace lktm::wl
