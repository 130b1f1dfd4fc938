// Harness for running real Cpu objects (bytecode interpreter) on the mini
// test system, with a coherent post-run word reader.
#pragma once

#include <memory>
#include <vector>

#include "cpu/barrier.hpp"
#include "cpu/core.hpp"
#include "testbed.hpp"

namespace lktm::test {

class CpuHarness {
 public:
  explicit CpuHarness(unsigned cores, TestSystemOptions opt = {},
                      cpu::CpuParams cpuParams = {})
      : opt_([&] {
          opt.cores = cores;
          return opt;
        }()),
        sys_(opt_),
        barrier_(sys_.ctx(), cores),
        cpuParams_(cpuParams) {}

  void setProgram(CoreId c, cpu::Program p) {
    while (cpus_.size() <= static_cast<std::size_t>(c)) {
      cpus_.push_back(nullptr);
    }
    cpus_[static_cast<std::size_t>(c)] = std::make_unique<cpu::Cpu>(
        sys_.ctx(), c, sys_.l1(c), barrier_, std::move(p), cpuParams_);
  }

  /// Run to completion; EXPECTs all CPUs halted.
  void run(Cycle budget = 10'000'000) {
    for (auto& c : cpus_) c->start();
    sys_.engine().run(budget);
    for (auto& c : cpus_) {
      EXPECT_TRUE(c->halted()) << c->diagnostic();
    }
  }

  cpu::Cpu& cpu(CoreId c) { return *cpus_.at(static_cast<std::size_t>(c)); }
  TestSystem& sys() { return sys_; }
  cpu::BarrierUnit& barrier() { return barrier_; }

  /// Coherent read of the final memory image.
  std::uint64_t read(Addr a) { return sys_.memSystem().readWord(a); }

 private:
  TestSystemOptions opt_;
  TestSystem sys_;
  cpu::BarrierUnit barrier_;
  cpu::CpuParams cpuParams_;
  std::vector<std::unique_ptr<cpu::Cpu>> cpus_;
};

}  // namespace lktm::test
