#include "mem/main_memory.hpp"

namespace lktm::mem {

void MainMemory::attachStats(stats::StatRegistry& reg) {
  // DRAM line fetches and writebacks.
  lineReads_ = &reg.counter("mem.line_reads");
  lineWrites_ = &reg.counter("mem.line_writes");
}

LineData MainMemory::readLine(LineAddr line) const {
  if (lineReads_ != nullptr) ++*lineReads_;
  auto it = store_.find(line);
  if (it == store_.end()) return LineData{};
  return it->second;
}

void MainMemory::writeLine(LineAddr line, const LineData& data) {
  if (lineWrites_ != nullptr) ++*lineWrites_;
  store_[line] = data;
}

std::uint64_t MainMemory::readWord(Addr addr) const {
  auto it = store_.find(lineOf(addr));
  if (it == store_.end()) return 0;
  return it->second[wordOf(addr)];
}

void MainMemory::writeWord(Addr addr, std::uint64_t value) {
  store_[lineOf(addr)][wordOf(addr)] = value;
}

}  // namespace lktm::mem
