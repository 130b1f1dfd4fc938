#include "stats/breakdown.hpp"

#include <cassert>

#include "stats/path.hpp"
#include "stats/tx_stats.hpp"

namespace lktm::stats {

ThreadBreakdown::ThreadBreakdown(StatRegistry& reg, const std::string& prefix) {
  for (std::size_t i = 0; i < cycles_.size(); ++i) {
    const auto cat = static_cast<TimeCat>(i);
    cycles_[i] = &reg.counter(statPath(prefix, "time", timeCatSlug(cat)));
  }
}

void ThreadBreakdown::beginSegment(TimeCat cat, Cycle now) {
  assert(now >= segStart_);
  *cycles_[static_cast<std::size_t>(cur_)] += now - segStart_;
  cur_ = cat;
  segStart_ = now;
}

void ThreadBreakdown::resolveSegment(TimeCat cat, Cycle now, TimeCat next) {
  assert(now >= segStart_);
  *cycles_[static_cast<std::size_t>(cat)] += now - segStart_;
  cur_ = next;
  segStart_ = now;
}

void ThreadBreakdown::finish(Cycle now) { beginSegment(cur_, now); }

Cycle ThreadBreakdown::total() const {
  Cycle t = 0;
  for (const Counter* c : cycles_) t += c->value();
  return t;
}

}  // namespace lktm::stats
