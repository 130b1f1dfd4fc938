#include "mem/main_memory.hpp"

namespace lktm::mem {

void MainMemory::attachStats(stats::StatRegistry& reg) {
  // DRAM line fetches; the LLC never evicts, so it never writes one back.
  lineReads_ = &reg.counter("mem.line_reads");
}

std::uint64_t MainMemory::readWord(Addr addr) const {
  return lineData(lineOf(addr))[wordOf(addr)];
}

void MainMemory::writeWord(Addr addr, std::uint64_t value) {
  store_[lineOf(addr)].data[wordOf(addr)] = value;
}

bool MainMemory::fillLlc(LineAddr line) {
  if (inWarmRange(line)) return false;
  Line& l = store_[line];
  if (l.inLlc) return false;
  l.inLlc = true;
  anyFilled_ = true;
  if (lineReads_ != nullptr) ++*lineReads_;
  return true;
}

void MainMemory::warmLlc(LineAddr from, LineAddr to) {
  if (from >= to) return;
  if (warmFrom_ == warmTo_ && !anyFilled_) {
    warmFrom_ = from;
    warmTo_ = to;
    if (lineReads_ != nullptr) *lineReads_ += to - from;
    return;
  }
  for (LineAddr l = from; l < to; ++l) fillLlc(l);
}

void MainMemory::writeBackLlc(LineAddr line, const LineData& data) {
  Line& l = store_[line];
  l.data = data;
  l.inLlc = true;
  anyFilled_ = true;
}

}  // namespace lktm::mem
