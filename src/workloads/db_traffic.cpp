#include "workloads/db_traffic.hpp"

#include <sstream>
#include <stdexcept>

#include "workloads/zipfian.hpp"

namespace lktm::wl {
namespace {

constexpr unsigned kRegAddr = 1;
constexpr unsigned kRegVal = 2;
constexpr unsigned kRegAddr2 = 3;
constexpr unsigned kRegVal2 = 4;
constexpr Addr kWordBytes = sizeof(std::uint64_t);

// ycsb and tpcc draw each transaction in one function (drawOps) shared
// verbatim between emitTx and verify: the verifier recomputes the expected
// conservation totals by replaying the same streams (forEachShareTx) instead
// of trusting state accumulated during emission, so building a program twice
// can never skew the invariant.

// -------------------------------------------------------------------- ycsb

class YcsbWorkload final : public TxStreamWorkload {
 public:
  YcsbWorkload(std::string name, unsigned rows, double theta, unsigned readPct,
               unsigned scanPct, unsigned opsPerTx, unsigned scanLen,
               unsigned totalTxs, std::uint64_t seed)
      : TxStreamWorkload(seed, 0xDB01),
        name_(std::move(name)),
        rows_(rows),
        readPct_(readPct),
        scanPct_(scanPct),
        opsPerTx_(opsPerTx),
        scanLen_(scanLen),
        totalTxs_(totalTxs),
        zipf_(rows, theta) {
    if (rows_ == 0) throw std::invalid_argument("ycsb: need at least one row");
  }

  std::string name() const override { return name_; }

  void init(mem::MainMemory&, unsigned) override {
    // One cache line per row. Rows start at 0 (sparse memory reads absent
    // lines as zero), so even huge stores cost nothing to lay out.
    base_ = space().allocLines(rows_);
  }

  std::vector<std::string> verify(const WordReader& read,
                                  unsigned nthreads) const override {
    std::uint64_t expected = 0;
    std::vector<Op> ops;
    for (unsigned tid = 0; tid < nthreads; ++tid) {
      forEachShareTx(tid, nthreads, [&](sim::Rng& rng, unsigned) {
        drawOps(rng, ops);
        for (const Op& op : ops) {
          if (op.write) ++expected;
        }
      });
    }
    std::uint64_t total = 0;
    for (unsigned r = 0; r < rows_; ++r) {
      total += read(base_ + static_cast<Addr>(r) * kLineBytes);
    }
    if (total == expected) return {};
    std::ostringstream oss;
    oss << name_ << ": row-update total " << total << " != generated " << expected
        << " (lost or duplicated updates)";
    return {oss.str()};
  }

 protected:
  unsigned totalTransactions(unsigned) const override { return totalTxs_; }

  void emitTx(cpu::ProgramBuilder& b, sim::Rng& rng, unsigned, unsigned, unsigned,
              tm::Backend& backend) override {
    drawOps(rng, ops_);
    backend.emitTransaction(b, [&](cpu::ProgramBuilder& pb) {
      for (const Op& op : ops_) {
        const Addr addr = base_ + static_cast<Addr>(op.key) * kLineBytes;
        if (op.write) {
          backend.emitUpdate(pb, addr, kRegAddr, kRegVal, 1);
        } else {
          backend.emitRead(pb, addr, kRegAddr, kRegVal);
        }
      }
    });
    b.compute(25);
  }

 private:
  struct Op {
    bool write = false;
    unsigned key = 0;
  };

  void drawOps(sim::Rng& rng, std::vector<Op>& ops) const {
    ops.clear();
    if (scanPct_ != 0 && rng.percent(scanPct_)) {
      const auto start = static_cast<unsigned>(zipf_.sample(rng));
      for (unsigned j = 0; j < scanLen_; ++j) {
        ops.push_back({false, (start + j) % rows_});
      }
    } else {
      for (unsigned i = 0; i < opsPerTx_; ++i) {
        const auto key = static_cast<unsigned>(zipf_.sample(rng));
        ops.push_back({!rng.percent(readPct_), key});
      }
    }
  }

  std::string name_;
  unsigned rows_;
  unsigned readPct_;
  unsigned scanPct_;
  unsigned opsPerTx_;
  unsigned scanLen_;
  unsigned totalTxs_;
  Zipfian zipf_;
  Addr base_ = 0;
  std::vector<Op> ops_;  // emitTx's scratch
};

// -------------------------------------------------------------------- tpcc

class TpccLiteWorkload final : public TxStreamWorkload {
 public:
  TpccLiteWorkload(unsigned warehouses, unsigned districts, unsigned customers,
                   unsigned items, unsigned totalTxs, std::uint64_t seed)
      : TxStreamWorkload(seed, 0xDB02),
        warehouses_(warehouses),
        districts_(districts),
        customers_(customers),
        items_(items),
        totalTxs_(totalTxs),
        custZipf_(customers, 0.99),
        itemZipf_(items, 0.99) {
    if (warehouses_ == 0 || districts_ == 0 || customers_ == 0 || items_ == 0) {
      throw std::invalid_argument("tpcc: all row populations must be non-zero");
    }
  }

  std::string name() const override { return "tpcc"; }

  void init(mem::MainMemory& memory, unsigned) override {
    whBase_ = space().allocLines(warehouses_);
    distBase_ = space().allocLines(warehouses_ * districts_);
    custBase_ = space().allocLines(warehouses_ * districts_ * customers_);
    itemBase_ = space().allocLines(items_);
    for (unsigned c = 0; c < warehouses_ * districts_ * customers_; ++c) {
      memory.writeWord(custBase_ + static_cast<Addr>(c) * kLineBytes, kInitBalance);
    }
    for (unsigned i = 0; i < items_; ++i) {
      memory.writeWord(itemBase_ + static_cast<Addr>(i) * kLineBytes, kInitStock);
    }
  }

  std::vector<std::string> verify(const WordReader& read,
                                  unsigned nthreads) const override {
    // Replay the generation streams to recover the expected conservation
    // totals, then check every ledger the two transaction types touch.
    std::uint64_t amountTotal = 0, newOrders = 0, orderLines = 0;
    std::vector<RowOp> ops;
    for (unsigned tid = 0; tid < nthreads; ++tid) {
      forEachShareTx(tid, nthreads, [&](sim::Rng& rng, unsigned) {
        drawOps(rng, ops);
        if (ops.front().read) {  // new-order starts with the customer read
          ++newOrders;
          orderLines += ops.size() - 2;  // minus customer read + next_o_id
        } else {
          amountTotal += static_cast<std::uint64_t>(ops.front().delta);
        }
      });
    }
    const std::uint64_t nCust = warehouses_ * districts_ * customers_;
    std::uint64_t whYtd = 0, distYtd = 0, nextOid = 0, custBal = 0, custYtd = 0,
                  stock = 0;
    for (unsigned w = 0; w < warehouses_; ++w) whYtd += read(whAddr(w));
    for (unsigned wd = 0; wd < warehouses_ * districts_; ++wd) {
      distYtd += read(distBase_ + static_cast<Addr>(wd) * kLineBytes);
      nextOid += read(distBase_ + static_cast<Addr>(wd) * kLineBytes + kWordBytes);
    }
    for (unsigned c = 0; c < nCust; ++c) {
      custBal += read(custBase_ + static_cast<Addr>(c) * kLineBytes);
      custYtd += read(custBase_ + static_cast<Addr>(c) * kLineBytes + kWordBytes);
    }
    for (unsigned i = 0; i < items_; ++i) {
      stock += read(itemBase_ + static_cast<Addr>(i) * kLineBytes);
    }
    std::vector<std::string> out;
    const auto check = [&out](const char* what, std::uint64_t got,
                              std::uint64_t want) {
      if (got == want) return;
      std::ostringstream oss;
      oss << "tpcc: " << what << " " << got << " != expected " << want;
      out.push_back(oss.str());
    };
    check("warehouse ytd", whYtd, amountTotal);
    check("district ytd", distYtd, amountTotal);
    check("customer ytd_payment", custYtd, amountTotal);
    check("customer balance", custBal, nCust * kInitBalance - amountTotal);
    check("district next_o_id", nextOid, newOrders);
    check("item stock", stock,
          static_cast<std::uint64_t>(items_) * kInitStock - orderLines);
    return out;
  }

 protected:
  unsigned totalTransactions(unsigned) const override { return totalTxs_; }

  void emitTx(cpu::ProgramBuilder& b, sim::Rng& rng, unsigned, unsigned, unsigned,
              tm::Backend& backend) override {
    drawOps(rng, ops_);
    backend.emitTransaction(b, [&](cpu::ProgramBuilder& pb) {
      for (const RowOp& op : ops_) {
        if (op.read) {
          backend.emitRead(pb, op.addr, kRegAddr, kRegVal);
        } else {
          backend.emitUpdate(pb, op.addr, kRegAddr, kRegVal, op.delta);
        }
      }
    });
    b.compute(20);
  }

 private:
  struct RowOp {
    Addr addr = 0;
    bool read = false;
    std::int64_t delta = 0;
  };

  Addr whAddr(unsigned w) const { return whBase_ + static_cast<Addr>(w) * kLineBytes; }
  Addr distAddr(unsigned w, unsigned d) const {
    return distBase_ + static_cast<Addr>(w * districts_ + d) * kLineBytes;
  }
  Addr custAddr(unsigned w, unsigned d, unsigned c) const {
    return custBase_ +
           static_cast<Addr>((w * districts_ + d) * customers_ + c) * kLineBytes;
  }
  Addr itemAddr(unsigned i) const {
    return itemBase_ + static_cast<Addr>(i) * kLineBytes;
  }

  void drawOps(sim::Rng& rng, std::vector<RowOp>& ops) const {
    ops.clear();
    const auto w = static_cast<unsigned>(rng.below(warehouses_));
    const auto d = static_cast<unsigned>(rng.below(districts_));
    const auto c = static_cast<unsigned>(custZipf_.sample(rng));
    if (rng.percent(43)) {
      // Payment: one amount flows through every ledger at once.
      const auto amount = static_cast<std::int64_t>(rng.range(1, 100));
      ops.push_back({whAddr(w), false, amount});
      ops.push_back({distAddr(w, d), false, amount});
      ops.push_back({custAddr(w, d, c), false, -amount});
      ops.push_back({custAddr(w, d, c) + kWordBytes, false, amount});
    } else {
      // New-order: read the customer, take an order id, draw down stock.
      ops.push_back({custAddr(w, d, c), true, 0});
      ops.push_back({distAddr(w, d) + kWordBytes, false, 1});
      const auto olCnt = static_cast<unsigned>(rng.range(3, 8));
      for (unsigned ol = 0; ol < olCnt; ++ol) {
        ops.push_back({itemAddr(static_cast<unsigned>(itemZipf_.sample(rng))),
                       false, -1});
      }
    }
  }

  static constexpr std::uint64_t kInitBalance = 1'000'000;
  static constexpr std::uint64_t kInitStock = 100'000;
  unsigned warehouses_;
  unsigned districts_;
  unsigned customers_;
  unsigned items_;
  unsigned totalTxs_;
  Zipfian custZipf_;
  Zipfian itemZipf_;
  Addr whBase_ = 0, distBase_ = 0, custBase_ = 0, itemBase_ = 0;
  std::vector<RowOp> ops_;  // emitTx's scratch
};

// --------------------------------------------------------------------- sps

class SpsWorkload final : public TxStreamWorkload {
 public:
  SpsWorkload(bool partDisjoint, unsigned cells, unsigned totalTxs,
              std::uint64_t seed)
      : TxStreamWorkload(seed, 0xDB03),
        partDisjoint_(partDisjoint),
        cells_(cells),
        totalTxs_(totalTxs) {
    if (cells_ < 2) throw std::invalid_argument("sps: need at least two cells");
  }

  std::string name() const override { return partDisjoint_ ? "sps-part" : "sps"; }

  void init(mem::MainMemory& memory, unsigned) override {
    base_ = space().allocLines(cells_);
    for (unsigned i = 0; i < cells_; ++i) {
      memory.writeWord(cellAddr(i), i + 1);  // distinct non-zero values
    }
  }

  std::vector<std::string> verify(const WordReader& read, unsigned) const override {
    // Swaps permute the initial values 1..cells: conservation of the sum and
    // of the sum of squares pins the multiset (u64 wrap is consistent on
    // both sides).
    std::uint64_t sum = 0, sumSq = 0, wantSum = 0, wantSumSq = 0;
    for (unsigned i = 0; i < cells_; ++i) {
      const std::uint64_t v = read(cellAddr(i));
      sum += v;
      sumSq += v * v;
      const std::uint64_t w = i + 1;
      wantSum += w;
      wantSumSq += w * w;
    }
    if (sum == wantSum && sumSq == wantSumSq) return {};
    std::ostringstream oss;
    oss << name() << ": value multiset not conserved (sum " << sum << "/" << wantSum
        << ", sumsq " << sumSq << "/" << wantSumSq << ")";
    return {oss.str()};
  }

 protected:
  unsigned totalTransactions(unsigned) const override { return totalTxs_; }

  void emitTx(cpu::ProgramBuilder& b, sim::Rng& rng, unsigned tid,
              unsigned nthreads, unsigned, tm::Backend& backend) override {
    const unsigned sliceLo = partDisjoint_ ? cells_ * tid / nthreads : 0;
    const unsigned sliceHi = partDisjoint_ ? cells_ * (tid + 1) / nthreads : cells_;
    const unsigned span = sliceHi - sliceLo;
    if (span < 2) {
      throw std::invalid_argument(
          "sps-part: thread slice has fewer than 2 cells (" +
          std::to_string(cells_) + " cells / " + std::to_string(nthreads) +
          " threads); grow the array or drop threads");
    }
    const auto a = sliceLo + static_cast<unsigned>(rng.below(span));
    auto c = sliceLo + static_cast<unsigned>(rng.below(span));
    if (c == a) c = sliceLo + (c - sliceLo + 1) % span;
    const Addr addrA = cellAddr(a);
    const Addr addrB = cellAddr(c);
    backend.emitTransaction(b, [&](cpu::ProgramBuilder& pb) {
      // Atomic swap: any torn interleaving breaks the value multiset.
      backend.emitRead(pb, addrA, kRegAddr, kRegVal);
      backend.emitRead(pb, addrB, kRegAddr2, kRegVal2);
      backend.emitWrite(pb, addrA, kRegAddr, kRegVal2);
      backend.emitWrite(pb, addrB, kRegAddr2, kRegVal);
    });
    b.compute(15);
  }

 private:
  Addr cellAddr(unsigned i) const {
    return base_ + static_cast<Addr>(i) * kLineBytes;
  }

  bool partDisjoint_;
  unsigned cells_;
  unsigned totalTxs_;
  Addr base_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeYcsb(std::string name, unsigned rows, double theta,
                                   unsigned readPct, unsigned scanPct,
                                   unsigned opsPerTx, unsigned scanLen,
                                   unsigned totalTxs, std::uint64_t seed) {
  return std::make_unique<YcsbWorkload>(std::move(name), rows, theta, readPct,
                                        scanPct, opsPerTx, scanLen, totalTxs, seed);
}

std::unique_ptr<Workload> makeTpccLite(unsigned warehouses, unsigned districts,
                                       unsigned customers, unsigned items,
                                       unsigned totalTxs, std::uint64_t seed) {
  return std::make_unique<TpccLiteWorkload>(warehouses, districts, customers,
                                            items, totalTxs, seed);
}

std::unique_ptr<Workload> makeSps(bool partDisjoint, unsigned cells,
                                  unsigned totalTxs, std::uint64_t seed) {
  return std::make_unique<SpsWorkload>(partDisjoint, cells, totalTxs, seed);
}

}  // namespace lktm::wl
