#include "workloads/micro.hpp"

#include <sstream>

namespace lktm::wl {
namespace {

constexpr unsigned kRegAddr = 1;
constexpr unsigned kRegVal = 2;
constexpr unsigned kRegPtr = 3;
constexpr unsigned kRegTmp = 5;

// ------------------------------------------------------------------ counter

class CounterWorkload final : public StampWorkloadBase {
 public:
  CounterWorkload(unsigned numCells, unsigned cellsPerTx, unsigned totalTxs,
                  std::uint64_t seed)
      : StampWorkloadBase(seed),
        numCells_(numCells),
        cellsPerTx_(cellsPerTx),
        totalTxs_(totalTxs) {}

  std::string name() const override { return "counter"; }

 protected:
  void setup(mem::MainMemory&, unsigned) override {
    cells_ = space().allocLines(numCells_);
  }

  unsigned totalTransactions(unsigned) const override { return totalTxs_; }

  TxDesc genTx(sim::Rng& rng, unsigned, unsigned, unsigned) override {
    TxDesc d;
    d.computeInside = 6;
    d.gapAfter = 30;
    for (unsigned i = 0; i < cellsPerTx_; ++i) {
      d.accesses.push_back(
          {cells_ + rng.below(numCells_) * kLineBytes, Access::Kind::Increment});
    }
    return d;
  }

 private:
  unsigned numCells_;
  unsigned cellsPerTx_;
  unsigned totalTxs_;
  Addr cells_ = 0;
};

// --------------------------------------------------------------------- bank

class BankWorkload final : public TxStreamWorkload {
 public:
  BankWorkload(unsigned accounts, unsigned totalTxs, std::uint64_t seed)
      : TxStreamWorkload(seed, 0xBA4C), accounts_(accounts), totalTxs_(totalTxs) {}

  std::string name() const override { return "bank"; }

  void init(mem::MainMemory& memory, unsigned) override {
    base_ = space().allocLines(accounts_);
    for (unsigned a = 0; a < accounts_; ++a) {
      memory.writeWord(base_ + a * kLineBytes, kInitialBalance);
    }
  }

  std::vector<std::string> verify(const WordReader& read, unsigned) const override {
    std::uint64_t total = 0;
    for (unsigned a = 0; a < accounts_; ++a) total += read(base_ + a * kLineBytes);
    const std::uint64_t expected =
        static_cast<std::uint64_t>(accounts_) * kInitialBalance;
    if (total == expected) return {};
    std::ostringstream oss;
    oss << "bank: total balance " << total << " != " << expected
        << " (atomicity violated)";
    return {oss.str()};
  }

 protected:
  unsigned totalTransactions(unsigned) const override { return totalTxs_; }

  void emitTx(cpu::ProgramBuilder& b, sim::Rng& rng, unsigned, unsigned, unsigned,
              tm::Backend& backend) override {
    const std::uint64_t from = rng.below(accounts_);
    std::uint64_t to = rng.below(accounts_);
    if (to == from) to = (to + 1) % accounts_;
    const Addr fromAddr = base_ + from * kLineBytes;
    const Addr toAddr = base_ + to * kLineBytes;
    backend.emitTransaction(b, [&](cpu::ProgramBuilder& pb) {
      // balance[from] -= 1; balance[to] += 1 (atomically)
      backend.emitUpdate(pb, fromAddr, kRegAddr, kRegVal, -1);
      pb.compute(8);
      backend.emitUpdate(pb, toAddr, kRegAddr, kRegVal, 1);
    });
    b.compute(25);
  }

 private:
  static constexpr std::uint64_t kInitialBalance = 1000;
  unsigned accounts_;
  unsigned totalTxs_;
  Addr base_ = 0;
};

// -------------------------------------------------------------- linked list

class LinkedListWorkload final : public TxStreamWorkload {
 public:
  LinkedListWorkload(unsigned nodes, unsigned hops, unsigned totalTxs,
                     std::uint64_t seed)
      : TxStreamWorkload(seed, 0x115D), nodes_(nodes), hops_(hops), totalTxs_(totalTxs) {}

  std::string name() const override { return "linkedlist"; }

  void init(mem::MainMemory& memory, unsigned) override {
    head_ = space().allocLines(nodes_);
    // Circular singly-linked list: word0 = next pointer, word1 = payload.
    for (unsigned i = 0; i < nodes_; ++i) {
      const Addr node = head_ + i * kLineBytes;
      const Addr next = head_ + ((i + 1) % nodes_) * kLineBytes;
      memory.writeWord(node, next);
    }
  }

  std::vector<std::string> verify(const WordReader& read, unsigned) const override {
    std::uint64_t total = 0;
    for (unsigned i = 0; i < nodes_; ++i) total += read(head_ + i * kLineBytes + 8);
    if (total == totalTxs_) return {};
    std::ostringstream oss;
    oss << "linkedlist: payload sum " << total << " != committed txs " << totalTxs_;
    return {oss.str()};
  }

 protected:
  unsigned totalTransactions(unsigned) const override { return totalTxs_; }
  Cycle startupCompute(unsigned tid) const override { return 20 + 9 * tid; }

  void emitTx(cpu::ProgramBuilder& b, sim::Rng& rng, unsigned, unsigned, unsigned,
              tm::Backend& backend) override {
    const Addr startAddr = head_ + rng.below(nodes_) * kLineBytes;
    backend.emitTransaction(b, [&](cpu::ProgramBuilder& pb) {
      pb.li(kRegPtr, static_cast<std::int64_t>(startAddr));
      // Pointer-chase `hops_` links: addresses are data-dependent, coming
      // from simulated memory through the coherence protocol. Backends
      // without dynamic-address support reject this workload up front.
      for (unsigned h = 0; h < hops_; ++h) {
        backend.emitReadDyn(pb, kRegPtr, kRegPtr, 0);
      }
      backend.emitReadDyn(pb, kRegTmp, kRegPtr, 8);
      pb.addi(kRegTmp, kRegTmp, 1);
      backend.emitWriteDyn(pb, kRegPtr, kRegTmp, 8);
    });
    b.compute(20);
  }

 private:
  unsigned nodes_;
  unsigned hops_;
  unsigned totalTxs_;
  Addr head_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeCounter(unsigned numCells, unsigned cellsPerTx,
                                      unsigned totalTxs, std::uint64_t seed) {
  return std::make_unique<CounterWorkload>(numCells, cellsPerTx, totalTxs, seed);
}

std::unique_ptr<Workload> makeBank(unsigned accounts, unsigned totalTxs,
                                   std::uint64_t seed) {
  return std::make_unique<BankWorkload>(accounts, totalTxs, seed);
}

std::unique_ptr<Workload> makeLinkedList(unsigned nodes, unsigned hops,
                                         unsigned totalTxs, std::uint64_t seed) {
  return std::make_unique<LinkedListWorkload>(nodes, hops, totalTxs, seed);
}

}  // namespace lktm::wl
