// Spin parking (DESIGN.md §8, "Parked spinners"): a CPU spinning on a line
// its L1 holds leaves the event queue and the next message to its L1 wakes
// it. Parking must not move a simulated number, so every table below was
// captured from the simulator before it could park: a parked run has to give
// the same exit cycles, L1 hits, retired instructions and run lengths, and
// the same Hang and Timeout diagnostics, down to each CPU's pc.
//
// The watchdog window is small throughout, so a spinner that stays parked
// through the store that releases it fails with a Hang, not a test timeout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "config/orchestrator.hpp"
#include "cpu/program.hpp"
#include "cpu_harness.hpp"
#include "sim/context.hpp"
#include "sim/event_queue.hpp"

namespace lktm::test {
namespace {

using cpu::ProgramBuilder;

constexpr Addr kWord = 0x40000;   // the word the spinners poll
constexpr Addr kWord2 = 0x48000;  // a second, never-released lock word
constexpr Cycle kWindow = 20'000;

/// The three loop shapes the runtime emits (lockiller.cpp): the MCS wait on
/// the node's flag, the MCS release's wait for the successor's link, and the
/// best-effort mutex-abort poll of the fallback lock.
struct Shape {
  const char* name;
  std::int64_t offset;  ///< of the polled word in its line
  bool bne;             ///< exit on nonzero (else on zero)
  std::int64_t compute;
  std::uint64_t held;      ///< initial value: keep spinning
  std::uint64_t released;  ///< the releasing store's value
  Cycle period() const { return 1 + 2 + 1 + static_cast<Cycle>(compute) + 1; }
};

constexpr Shape kMcsWait{"mcs-wait", 8, false, 8, 1, 0};
constexpr Shape kMcsWaitLink{"mcs-waitlink", 0, true, 8, 0, 0x1c0};
constexpr Shape kMutexPoll{"mutex-poll", 0, false, 24, 1, 0};

cpu::Program spinner(const Shape& s, Addr word) {
  ProgramBuilder b;
  b.li(1, static_cast<std::int64_t>(word));
  const auto loop = b.here();
  b.load(2, 1, s.offset);
  const auto exit = s.bne ? b.bne(2, cpu::kZeroReg) : b.beq(2, cpu::kZeroReg);
  b.compute(s.compute);
  b.jmp(loop);
  b.patchTarget(exit, b.here());
  b.halt();
  return b.build();
}

/// After `delay` cycles of compute, store the shape's releasing value.
cpu::Program releaser(const Shape& s, Cycle delay) {
  ProgramBuilder b;
  b.li(1, static_cast<std::int64_t>(kWord));
  b.li(2, static_cast<std::int64_t>(s.released));
  b.compute(static_cast<std::int64_t>(delay));
  b.store(1, 2, s.offset);
  b.halt();
  return b.build();
}

using Row = std::vector<std::uint64_t>;

std::string rowsAsCode(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) {
    out += "      {";
    for (std::size_t i = 0; i < r.size(); ++i) out += (i ? ", " : "") + std::to_string(r[i]);
    out += "},\n";
  }
  return out;
}

/// `spinners` CPUs poll kWord with shape `s`; one more CPU releases them all
/// with one store after `delay` cycles. Row: delay, then per spinner its exit
/// (halt) cycle, L1 hits and retired instructions, then the run's cycles.
Row releaseRow(const Shape& s, unsigned spinners, Cycle delay) {
  CpuHarness h(spinners + 1);
  h.sys().engine().reset(kWindow);
  h.sys().memory().writeWord(kWord + static_cast<Addr>(s.offset), s.held);
  for (unsigned c = 0; c < spinners; ++c) h.setProgram(static_cast<CoreId>(c), spinner(s, kWord));
  h.setProgram(static_cast<CoreId>(spinners), releaser(s, delay));
  h.run();
  Row row{delay};
  Cycle cycles = 0;
  for (unsigned c = 0; c <= spinners; ++c) {
    const cpu::Cpu& cpu = h.cpu(static_cast<CoreId>(c));
    cycles = std::max(cycles, cpu.haltedAt());
    if (c == spinners) break;
    row.insert(row.end(), {cpu.haltedAt(), h.sys().l1(static_cast<CoreId>(c)).hits(),
                           cpu.instsRetired()});
  }
  row.push_back(cycles);
  return row;
}

/// Sweep the releasing store's delay over two loop periods, starting once
/// the spinners have parked.
void expectReleaseTable(const Shape& s, unsigned spinners, const std::vector<Row>& want) {
  std::vector<Row> got;
  for (Cycle d = 400; d < 400 + 2 * s.period(); ++d) got.push_back(releaseRow(s, spinners, d));
  EXPECT_EQ(got, want) << s.name << " x" << spinners << ", captured:\n" << rowsAsCode(got);
}

TEST(SpinPark, McsWaitExitsWhenTheUnparkedRunDoes) {
  expectReleaseTable(kMcsWait, 1, {
      {400, 457, 23, 99, 457},
      {401, 458, 23, 99, 458},
      {402, 459, 23, 99, 459},
      {403, 460, 23, 99, 460},
      {404, 461, 23, 99, 461},
      {405, 462, 23, 99, 462},
      {406, 463, 23, 99, 463},
      {407, 464, 23, 99, 464},
      {408, 465, 23, 99, 465},
      {409, 469, 24, 103, 469},
      {410, 469, 24, 103, 469},
      {411, 469, 24, 103, 469},
      {412, 469, 24, 103, 469},
      {413, 470, 24, 103, 470},
      {414, 471, 24, 103, 471},
      {415, 472, 24, 103, 472},
      {416, 473, 24, 103, 473},
      {417, 474, 24, 103, 474},
      {418, 475, 24, 103, 475},
      {419, 476, 24, 103, 476},
      {420, 477, 24, 103, 477},
      {421, 478, 24, 103, 478},
      {422, 482, 25, 107, 482},
      {423, 482, 25, 107, 482},
      {424, 482, 25, 107, 482},
      {425, 482, 25, 107, 482},
  });
}

TEST(SpinPark, McsWaitLinkExitsWhenTheUnparkedRunDoes) {
  expectReleaseTable(kMcsWaitLink, 1, {
      {400, 457, 23, 99, 457},
      {401, 458, 23, 99, 458},
      {402, 459, 23, 99, 459},
      {403, 460, 23, 99, 460},
      {404, 461, 23, 99, 461},
      {405, 462, 23, 99, 462},
      {406, 463, 23, 99, 463},
      {407, 464, 23, 99, 464},
      {408, 465, 23, 99, 465},
      {409, 469, 24, 103, 469},
      {410, 469, 24, 103, 469},
      {411, 469, 24, 103, 469},
      {412, 469, 24, 103, 469},
      {413, 470, 24, 103, 470},
      {414, 471, 24, 103, 471},
      {415, 472, 24, 103, 472},
      {416, 473, 24, 103, 473},
      {417, 474, 24, 103, 474},
      {418, 475, 24, 103, 475},
      {419, 476, 24, 103, 476},
      {420, 477, 24, 103, 477},
      {421, 478, 24, 103, 478},
      {422, 482, 25, 107, 482},
      {423, 482, 25, 107, 482},
      {424, 482, 25, 107, 482},
      {425, 482, 25, 107, 482},
  });
}

TEST(SpinPark, MutexPollExitsWhenTheUnparkedRunDoes) {
  expectReleaseTable(kMutexPoll, 1, {
      {400, 463, 10, 47, 463},
      {401, 463, 10, 47, 463},
      {402, 463, 10, 47, 463},
      {403, 463, 10, 47, 463},
      {404, 463, 10, 47, 463},
      {405, 463, 10, 47, 463},
      {406, 463, 10, 47, 463},
      {407, 464, 10, 47, 464},
      {408, 465, 10, 47, 465},
      {409, 466, 10, 47, 466},
      {410, 467, 10, 47, 467},
      {411, 468, 10, 47, 468},
      {412, 469, 10, 47, 469},
      {413, 470, 10, 47, 470},
      {414, 471, 10, 47, 471},
      {415, 472, 10, 47, 472},
      {416, 492, 11, 51, 492},
      {417, 492, 11, 51, 492},
      {418, 492, 11, 51, 492},
      {419, 492, 11, 51, 492},
      {420, 492, 11, 51, 492},
      {421, 492, 11, 51, 492},
      {422, 492, 11, 51, 492},
      {423, 492, 11, 51, 492},
      {424, 492, 11, 51, 492},
      {425, 492, 11, 51, 492},
      {426, 492, 11, 51, 492},
      {427, 492, 11, 51, 492},
      {428, 492, 11, 51, 492},
      {429, 492, 11, 51, 492},
      {430, 492, 11, 51, 492},
      {431, 492, 11, 51, 492},
      {432, 492, 11, 51, 492},
      {433, 492, 11, 51, 492},
      {434, 492, 11, 51, 492},
      {435, 492, 11, 51, 492},
      {436, 493, 11, 51, 493},
      {437, 494, 11, 51, 494},
      {438, 495, 11, 51, 495},
      {439, 496, 11, 51, 496},
      {440, 497, 11, 51, 497},
      {441, 498, 11, 51, 498},
      {442, 499, 11, 51, 499},
      {443, 500, 11, 51, 500},
      {444, 501, 11, 51, 501},
      {445, 521, 12, 55, 521},
      {446, 521, 12, 55, 521},
      {447, 521, 12, 55, 521},
      {448, 521, 12, 55, 521},
      {449, 521, 12, 55, 521},
      {450, 521, 12, 55, 521},
      {451, 521, 12, 55, 521},
      {452, 521, 12, 55, 521},
      {453, 521, 12, 55, 521},
      {454, 521, 12, 55, 521},
      {455, 521, 12, 55, 521},
      {456, 521, 12, 55, 521},
      {457, 521, 12, 55, 521},
  });
}

TEST(SpinPark, OneStoreReleasesFourPollersAsTheUnparkedRunDoes) {
  // Four pollers of one word tie on their cycles; the store invalidates all
  // four copies and each wakes at its own message.
  expectReleaseTable(kMutexPoll, 4, {
      {400, 547, 10, 47, 531, 9, 43, 611, 9, 43, 579, 7, 35, 611},
      {401, 526, 10, 47, 584, 10, 47, 612, 9, 43, 558, 7, 35, 612},
      {402, 527, 10, 47, 547, 10, 47, 575, 9, 43, 611, 8, 39, 611},
      {403, 528, 10, 47, 548, 10, 47, 576, 9, 43, 612, 8, 39, 612},
      {404, 529, 10, 47, 549, 10, 47, 577, 9, 43, 613, 8, 39, 613},
      {405, 530, 10, 47, 550, 10, 47, 578, 9, 43, 614, 8, 39, 614},
      {406, 531, 10, 47, 551, 10, 47, 579, 9, 43, 615, 8, 39, 615},
      {407, 532, 10, 47, 552, 10, 47, 580, 9, 43, 616, 8, 39, 616},
      {408, 533, 10, 47, 553, 10, 47, 581, 9, 43, 617, 8, 39, 617},
      {409, 534, 10, 47, 554, 10, 47, 582, 9, 43, 618, 8, 39, 618},
      {410, 587, 11, 51, 541, 10, 47, 569, 9, 43, 619, 8, 39, 619},
      {411, 588, 11, 51, 542, 10, 47, 570, 9, 43, 620, 8, 39, 620},
      {412, 589, 11, 51, 543, 10, 47, 571, 9, 43, 621, 8, 39, 621},
      {413, 590, 11, 51, 544, 10, 47, 572, 9, 43, 622, 8, 39, 622},
      {414, 591, 11, 51, 545, 10, 47, 573, 9, 43, 623, 8, 39, 623},
      {415, 592, 11, 51, 546, 10, 47, 574, 9, 43, 624, 8, 39, 624},
      {416, 593, 11, 51, 547, 10, 47, 575, 9, 43, 625, 8, 39, 625},
      {417, 594, 11, 51, 548, 10, 47, 576, 9, 43, 626, 8, 39, 626},
      {418, 595, 11, 51, 549, 10, 47, 577, 9, 43, 627, 8, 39, 627},
      {419, 596, 11, 51, 550, 10, 47, 578, 9, 43, 628, 8, 39, 628},
      {420, 597, 11, 51, 551, 10, 47, 579, 9, 43, 629, 8, 39, 629},
      {421, 598, 11, 51, 552, 10, 47, 580, 9, 43, 630, 8, 39, 630},
      {422, 599, 11, 51, 553, 10, 47, 581, 9, 43, 631, 8, 39, 631},
      {423, 600, 11, 51, 554, 10, 47, 582, 9, 43, 632, 8, 39, 632},
      {424, 601, 11, 51, 555, 10, 47, 583, 9, 43, 633, 8, 39, 633},
      {425, 602, 11, 51, 556, 10, 47, 584, 9, 43, 634, 8, 39, 634},
      {426, 603, 11, 51, 557, 10, 47, 585, 9, 43, 635, 8, 39, 635},
      {427, 574, 11, 51, 558, 10, 47, 638, 10, 47, 606, 8, 39, 638},
      {428, 575, 11, 51, 559, 10, 47, 639, 10, 47, 607, 8, 39, 639},
      {429, 576, 11, 51, 560, 10, 47, 640, 10, 47, 608, 8, 39, 640},
      {430, 555, 11, 51, 613, 11, 51, 641, 10, 47, 587, 8, 39, 641},
      {431, 556, 11, 51, 576, 11, 51, 604, 10, 47, 640, 9, 43, 640},
      {432, 557, 11, 51, 577, 11, 51, 605, 10, 47, 641, 9, 43, 641},
      {433, 558, 11, 51, 578, 11, 51, 606, 10, 47, 642, 9, 43, 642},
      {434, 559, 11, 51, 579, 11, 51, 607, 10, 47, 643, 9, 43, 643},
      {435, 560, 11, 51, 580, 11, 51, 608, 10, 47, 644, 9, 43, 644},
      {436, 561, 11, 51, 581, 11, 51, 609, 10, 47, 645, 9, 43, 645},
      {437, 562, 11, 51, 582, 11, 51, 610, 10, 47, 646, 9, 43, 646},
      {438, 563, 11, 51, 583, 11, 51, 611, 10, 47, 647, 9, 43, 647},
      {439, 616, 12, 55, 570, 11, 51, 598, 10, 47, 648, 9, 43, 648},
      {440, 617, 12, 55, 571, 11, 51, 599, 10, 47, 649, 9, 43, 649},
      {441, 618, 12, 55, 572, 11, 51, 600, 10, 47, 650, 9, 43, 650},
      {442, 619, 12, 55, 573, 11, 51, 601, 10, 47, 651, 9, 43, 651},
      {443, 620, 12, 55, 574, 11, 51, 602, 10, 47, 652, 9, 43, 652},
      {444, 621, 12, 55, 575, 11, 51, 603, 10, 47, 653, 9, 43, 653},
      {445, 622, 12, 55, 576, 11, 51, 604, 10, 47, 654, 9, 43, 654},
      {446, 623, 12, 55, 577, 11, 51, 605, 10, 47, 655, 9, 43, 655},
      {447, 624, 12, 55, 578, 11, 51, 606, 10, 47, 656, 9, 43, 656},
      {448, 625, 12, 55, 579, 11, 51, 607, 10, 47, 657, 9, 43, 657},
      {449, 626, 12, 55, 580, 11, 51, 608, 10, 47, 658, 9, 43, 658},
      {450, 627, 12, 55, 581, 11, 51, 609, 10, 47, 659, 9, 43, 659},
      {451, 628, 12, 55, 582, 11, 51, 610, 10, 47, 660, 9, 43, 660},
      {452, 629, 12, 55, 583, 11, 51, 611, 10, 47, 661, 9, 43, 661},
      {453, 630, 12, 55, 584, 11, 51, 612, 10, 47, 662, 9, 43, 662},
      {454, 631, 12, 55, 585, 11, 51, 613, 10, 47, 663, 9, 43, 663},
      {455, 632, 12, 55, 586, 11, 51, 614, 10, 47, 664, 9, 43, 664},
      {456, 603, 12, 55, 587, 11, 51, 667, 11, 51, 635, 9, 43, 667},
      {457, 604, 12, 55, 588, 11, 51, 668, 11, 51, 636, 9, 43, 668},
  });
}

// ------------------------------------------------------ run-ending diagnostics

enum class Holder { Busy, Halts };

/// CPU 0 takes the lock at kWord and then either computes forever without
/// progress or halts; CPU 1 polls kWord, CPU 2 waits on the never-released
/// kWord2. Returns "now=N" and the exception's whole message.
std::string endOfRun(Holder holder, Cycle window, Cycle budget) {
  CpuHarness h(3);
  h.sys().engine().reset(window);
  h.sys().memory().writeWord(kWord2 + static_cast<Addr>(kMcsWait.offset), 1);
  ProgramBuilder b;
  b.li(1, static_cast<std::int64_t>(kWord));
  b.li(2, 1);
  b.store(1, 2);
  if (holder == Holder::Busy) {
    const auto busy = b.here();
    b.compute(7);
    b.jmp(busy);
  } else {
    b.halt();
  }
  h.setProgram(0, b.build());
  h.setProgram(1, spinner(kMutexPoll, kWord));
  h.setProgram(2, spinner(kMcsWait, kWord2));
  for (CoreId c = 0; c < 3; ++c) {
    h.sys().engine().addDiagnostic([&h, c] { return h.cpu(c).diagnostic(); });
  }
  for (CoreId c = 0; c < 3; ++c) h.cpu(c).start();
  try {
    h.sys().engine().run(budget);
  } catch (const std::exception& e) {
    return "now=" + std::to_string(h.sys().engine().now()) + "\n" + e.what();
  }
  return "no exception";
}

void expectEnds(Holder holder, bool sweepBudget, const std::vector<std::string>& want) {
  std::vector<std::string> got;
  for (Cycle x = 3000; x < 3013; ++x) {
    got.push_back(sweepBudget ? endOfRun(holder, kWindow, x) : endOfRun(holder, x, 1'000'000));
  }
  std::string code;
  for (const std::string& s : got) code += "      R\"(" + s + ")\",\n";
  EXPECT_EQ(got, want) << "captured:\n" << code;
}

TEST(SpinPark, HangWhileTheHolderComputesMatchesTheUnparkedRun) {
  expectEnds(Holder::Busy, false, {
      R"(now=3004
watchdog: no forward progress for 3000 cycles (now=3004)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3004
watchdog: no forward progress for 3001 cycles (now=3004)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3004
watchdog: no forward progress for 3002 cycles (now=3004)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3004
watchdog: no forward progress for 3003 cycles (now=3004)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3005
watchdog: no forward progress for 3004 cycles (now=3005)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0 op-active)",
      R"(now=3007
watchdog: no forward progress for 3005 cycles (now=3007)
  cpu c0: pc=3 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0 op-active)",
      R"(now=3007
watchdog: no forward progress for 3006 cycles (now=3007)
  cpu c0: pc=3 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0 op-active)",
      R"(now=3008
watchdog: no forward progress for 3007 cycles (now=3008)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=2 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3009
watchdog: no forward progress for 3008 cycles (now=3009)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=1 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=3 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3010
watchdog: no forward progress for 3009 cycles (now=3010)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=1 nest=0 L1 c1: mode=none mshr=0 wb=0 op-active
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3012
watchdog: no forward progress for 3010 cycles (now=3012)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=2 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3012
watchdog: no forward progress for 3011 cycles (now=3012)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=2 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3013
watchdog: no forward progress for 3012 cycles (now=3013)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=3 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
  });
}

TEST(SpinPark, TimeoutWhileTheHolderComputesMatchesTheUnparkedRun) {
  expectEnds(Holder::Busy, true, {
      R"(now=3004
simulation exceeded cycle budget (3000 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3004
simulation exceeded cycle budget (3001 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3004
simulation exceeded cycle budget (3002 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3004
simulation exceeded cycle budget (3003 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3005
simulation exceeded cycle budget (3004 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0 op-active)",
      R"(now=3007
simulation exceeded cycle budget (3005 cycles)
  cpu c0: pc=3 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0 op-active)",
      R"(now=3007
simulation exceeded cycle budget (3006 cycles)
  cpu c0: pc=3 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0 op-active)",
      R"(now=3008
simulation exceeded cycle budget (3007 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=2 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3009
simulation exceeded cycle budget (3008 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=1 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=3 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3010
simulation exceeded cycle budget (3009 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=1 nest=0 L1 c1: mode=none mshr=0 wb=0 op-active
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3012
simulation exceeded cycle budget (3010 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=2 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3012
simulation exceeded cycle budget (3011 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=2 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3013
simulation exceeded cycle budget (3012 cycles)
  cpu c0: pc=4 nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=3 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
  });
}

TEST(SpinPark, HangOnADrainedQueueMatchesTheUnparkedRun) {
  // Every CPU left is parked, so the queue drains; the unparked spinners
  // would have run until the watchdog fired.
  expectEnds(Holder::Halts, false, {
      R"(now=3121
watchdog: no forward progress for 3000 cycles (now=3121)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3122
watchdog: no forward progress for 3001 cycles (now=3122)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0 op-active)",
      R"(now=3124
watchdog: no forward progress for 3002 cycles (now=3124)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=2 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3124
watchdog: no forward progress for 3003 cycles (now=3124)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=2 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3125
watchdog: no forward progress for 3004 cycles (now=3125)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=1 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=2 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3126
watchdog: no forward progress for 3005 cycles (now=3126)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=1 nest=0 L1 c1: mode=none mshr=0 wb=0 op-active
  cpu c2: pc=3 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3128
watchdog: no forward progress for 3006 cycles (now=3128)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=2 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3128
watchdog: no forward progress for 3007 cycles (now=3128)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=2 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3129
watchdog: no forward progress for 3008 cycles (now=3129)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=3 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3130
watchdog: no forward progress for 3009 cycles (now=3130)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=4 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3134
watchdog: no forward progress for 3010 cycles (now=3134)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3134
watchdog: no forward progress for 3011 cycles (now=3134)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
      R"(now=3134
watchdog: no forward progress for 3012 cycles (now=3134)
  cpu c0: pc=3 halted nest=0 L1 c0: mode=none mshr=0 wb=0
  cpu c1: pc=4 nest=0 L1 c1: mode=none mshr=0 wb=0
  cpu c2: pc=1 nest=0 L1 c2: mode=none mshr=0 wb=0)",
  });
}

// ---------------------------------------------------------------------------
// Whole cells. A schedule oracle that always picks the first ready event keeps
// the default (cycle, seq) order, and nothing parks under an oracle: so the
// oracle run is the unparked reference for the same cell.

struct FirstReady final : sim::ScheduleOracle {
  std::size_t pick(Cycle, std::size_t) override { return 0; }
};

struct CellRun {
  cfg::RunResult result;
  std::uint64_t events = 0;
  std::uint64_t stepped = 0;  ///< parked-loop events placed one at a time
};

CellRun runCell(const cfg::JobSpec& spec, bool unparked) {
  sim::SimContext ctx;
  FirstReady oracle;
  if (unparked) ctx.engine().setScheduleOracle(&oracle);
  CellRun run;
  run.result = cfg::runSpec(spec, cfg::OrchestratorOptions{}, ctx);
  run.events = ctx.queue().executed();
  run.stepped = ctx.queue().loopEventsStepped();
  return run;
}

cfg::JobSpec cell(const char* system, const char* workload, unsigned threads,
                  std::uint64_t seed) {
  cfg::JobSpec spec;
  spec.system = system;
  spec.workload = workload;
  spec.threads = threads;
  spec.seed = seed;
  return spec;
}

void expectParkedEqualsUnparked(const cfg::JobSpec& spec) {
  const CellRun parked = runCell(spec, false);
  const CellRun unparked = runCell(spec, true);
  ASSERT_TRUE(parked.result.ok()) << spec.id() << ": " << parked.result.diagnostic;
  ASSERT_TRUE(unparked.result.ok()) << spec.id() << ": " << unparked.result.diagnostic;
  EXPECT_LT(parked.events, unparked.events) << spec.id() << ": no loop parked";
  EXPECT_EQ(parked.result.cycles, unparked.result.cycles) << spec.id();
  EXPECT_TRUE(parked.result.stats == unparked.result.stats) << spec.id();
}

TEST(SpinPark, ParkedCellsEqualTheUnparkedRun) {
  for (const cfg::JobSpec& spec :
       {cell("CGL", "genome", 32, 11), cell("CGL", "kmeans+", 8, 11),
        cell("CGL", "ycsb", 8, 11), cell("Baseline", "yada", 8, 11),
        cell("LosaTM-SAFU", "intruder", 8, 11)}) {
    expectParkedEqualsUnparked(spec);
  }
  for (std::uint64_t seed = 12; seed <= 15; ++seed) {
    expectParkedEqualsUnparked(cell("CGL", "kmeans+", 8, seed));
    expectParkedEqualsUnparked(cell("Baseline", "yada", 8, seed));
  }
}

TEST(SpinPark, ParkedLoopsArePlacedPerWakeNotPerIteration) {
  // CGL/genome@32 at seed 11 runs 1,820,893 parked loop events; placing each
  // one in turn is what this bound rules out.
  const CellRun run = runCell(cell("CGL", "genome", 32, 11), false);
  ASSERT_TRUE(run.result.ok()) << run.result.diagnostic;
  EXPECT_LE(run.stepped, 182'089u);
}

}  // namespace
}  // namespace lktm::test
