#include "coherence/checker.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace lktm::coh {

namespace {

struct Copy {
  CoreId core;
  mem::MesiState state;
  bool dirty;
  bool txBits;
  mem::LineData data;
};

/// Every valid L1 copy, per line, in core order.
std::map<LineAddr, std::vector<Copy>> gatherCopies(
    const std::vector<const L1Controller*>& l1s) {
  std::map<LineAddr, std::vector<Copy>> copies;
  for (std::size_t i = 0; i < l1s.size(); ++i) {
    l1s[i]->cache().forEachValid([&](const mem::CacheEntry& e) {
      copies[e.line].push_back(Copy{static_cast<CoreId>(i), e.state, e.dirty,
                                    e.transactional(), e.data});
    });
  }
  return copies;
}

bool isExclusive(const Copy& c) {
  return c.state == mem::MesiState::E || c.state == mem::MesiState::M;
}

std::string lineMessage(LineAddr line, const std::string& what) {
  std::ostringstream oss;
  oss << "line 0x" << std::hex << line << std::dec << ": " << what;
  return oss.str();
}

/// SWMR: an E/M copy coexists with no other valid copy.
void swmrRule(LineAddr line, const std::vector<Copy>& cs, std::vector<std::string>& out) {
  if (cs.size() == 1 || std::none_of(cs.begin(), cs.end(), isExclusive)) return;
  std::string holders;
  for (const Copy& c : cs) {
    holders += " c" + std::to_string(c.core) + "=" + mem::toString(c.state);
  }
  out.push_back(lineMessage(line, "SWMR violated: an E/M copy coexists with " +
                                      std::to_string(cs.size() - 1) +
                                      " other(s):" + holders));
}

}  // namespace

std::vector<std::string> CoherenceChecker::checkSwmr() const {
  std::vector<std::string> out;
  for (const auto& [line, cs] : gatherCopies(l1s_)) swmrRule(line, cs, out);
  return out;
}

std::vector<std::string> CoherenceChecker::check() const {
  std::vector<std::string> out;
  auto fail = [&](LineAddr line, const std::string& what) {
    out.push_back(lineMessage(line, what));
  };

  if (dir_->busyLines() != 0) {
    out.push_back("directory not quiescent: " + std::to_string(dir_->busyLines()) +
                  " busy lines");
  }

  for (std::size_t i = 0; i < l1s_.size(); ++i) {
    const L1Controller* l1 = l1s_[i];
    if (l1->mode() != TxMode::None) continue;
    const auto txLines = l1->cache().countIf(
        [](const mem::CacheEntry& e) { return e.transactional(); });
    if (txLines != 0) {
      out.push_back("core " + std::to_string(i) + " has " + std::to_string(txLines) +
                    " tx-marked lines outside a tx");
    }
  }

  for (const auto& [line, cs] : gatherCopies(l1s_)) {
    swmrRule(line, cs, out);
    unsigned exclusive = 0;
    unsigned dirtyCount = 0;
    CoreId owner = kNoCore;
    for (const Copy& c : cs) {
      if (isExclusive(c)) {
        ++exclusive;
        owner = c.core;
      }
      if (c.dirty) ++dirtyCount;
    }
    if (dirtyCount > 1) fail(line, "multiple dirty copies");

    const auto snap = dir_->snapshot(line);
    if (exclusive == 1 && snap.owner != owner) {
      fail(line, "directory owner=" + std::to_string(snap.owner) +
                     " but E/M copy at core " + std::to_string(owner));
    }
    for (const Copy& c : cs) {
      if (c.state == mem::MesiState::S && snap.owner == kNoCore &&
          snap.sharers.count(c.core) == 0) {
        fail(line, "S copy at core " + std::to_string(c.core) +
                       " missing from the sharer list");
      }
      // Clean copies must agree with the LLC (value coherence). Dirty copies
      // are by definition newer.
      if (!c.dirty && !c.txBits && dir_->llcHas(line) &&
          c.data != dir_->llcData(line)) {
        fail(line, "clean copy at core " + std::to_string(c.core) +
                       " disagrees with the LLC");
      }
    }
  }
  return out;
}

}  // namespace lktm::coh
