// Kernel regression tests: runUntil edge cases, the event heap's pop order
// against an independent sorted reference, the interned symbol table, the
// O(1) timeline accumulators, and the coroutine frame arena's free-list
// recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/symbols.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace prtr::sim {
namespace {

using util::Time;

Process ticker(Simulator& sim, std::vector<std::int64_t>& out, Time period,
               int count) {
  for (int i = 0; i < count; ++i) {
    co_await sim.delay(period);
    out.push_back(sim.now().ps());
  }
}

TEST(RunUntil, ExecutesTheEventExactlyAtTheDeadline) {
  Simulator sim;
  std::vector<std::int64_t> ticks;
  sim.spawn(ticker(sim, ticks, Time::microseconds(10), 3));
  // Deadline lands exactly on the second tick: <= semantics must run it.
  sim.runUntil(Time::microseconds(20));
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{
                       Time::microseconds(10).ps(),
                       Time::microseconds(20).ps()}));
  EXPECT_EQ(sim.now(), Time::microseconds(20));
}

TEST(RunUntil, EmptyQueueStillAdvancesNowToTheDeadline) {
  Simulator sim;
  EXPECT_EQ(sim.runUntil(Time::milliseconds(7)), Time::milliseconds(7));
  EXPECT_EQ(sim.now(), Time::milliseconds(7));
  EXPECT_EQ(sim.eventsProcessed(), 0u);
  // A second call with an earlier deadline must not move time backwards.
  EXPECT_EQ(sim.runUntil(Time::milliseconds(3)), Time::milliseconds(7));
}

TEST(RunUntil, RepeatedCallsResumeWhereTheLastOneStopped) {
  Simulator sim;
  std::vector<std::int64_t> ticks;
  sim.spawn(ticker(sim, ticks, Time::microseconds(10), 5));
  sim.runUntil(Time::microseconds(25));
  EXPECT_EQ(ticks.size(), 2u);
  EXPECT_EQ(sim.now(), Time::microseconds(25));
  // Re-entering must not replay the first two ticks and must pick up the
  // pending third event untouched.
  sim.runUntil(Time::microseconds(25));
  EXPECT_EQ(ticks.size(), 2u);
  sim.runUntil(Time::microseconds(50));
  EXPECT_EQ(ticks.size(), 5u);
  EXPECT_EQ(ticks.back(), Time::microseconds(50).ps());
}

TEST(RunUntil, SpawningBetweenCallsKeepsTheScheduleOrder) {
  Simulator sim;
  std::vector<std::int64_t> ticks;
  sim.spawn(ticker(sim, ticks, Time::microseconds(4), 2));
  sim.runUntil(Time::microseconds(4));
  // The new root starts at now() = 4 us, interleaving with the first.
  sim.spawn(ticker(sim, ticks, Time::microseconds(1), 3));
  sim.run();
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{
                       Time::microseconds(4).ps(), Time::microseconds(5).ps(),
                       Time::microseconds(6).ps(), Time::microseconds(7).ps(),
                       Time::microseconds(8).ps()}));
}

/// (time, seq) key of an event; the reference order is these keys sorted.
using Key = std::pair<std::int64_t, std::uint64_t>;

/// Pops every event from `heap` and returns the (time, seq) sequence.
std::vector<Key> drain(EventHeap<Event>& heap) {
  std::vector<Key> order;
  while (!heap.empty()) {
    const std::int64_t topPs = heap.top().timePs;
    const Event event = heap.pop();
    EXPECT_EQ(event.timePs, topPs);
    order.emplace_back(event.timePs, event.seq);
  }
  return order;
}

TEST(EventHeap, PopsInSortedTimeSeqOrderWithManyTies) {
  // Random schedule over 100 ms — far past any ~2 ms window — with most
  // times drawn from a few hundred instants, so equal-time ties are the
  // common case. Pushed in seq order, popped in (time, seq) order: the
  // independent reference is simply the keys sorted.
  util::Rng rng{20260807};
  EventHeap<Event> heap;
  std::vector<Key> reference;
  for (std::uint64_t seq = 0; seq < 6000; ++seq) {
    const std::int64_t timePs =
        rng() % 4 == 0
            ? static_cast<std::int64_t>(rng() % 100'000'000'000ull)
            : static_cast<std::int64_t>(rng() % 300) * 333'333'333;
    heap.push(Event{timePs, seq, {}});
    reference.emplace_back(timePs, seq);
  }
  ASSERT_EQ(heap.size(), reference.size());
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(drain(heap), reference);
}

TEST(EventHeap, InterleavedPushPopMatchesTheSortedReference) {
  // Pops interleave with pushes, as in a simulation: every push is at or
  // after the last popped time (ties with now, near-future, and hops far
  // past 2.1 ms). The reference is a sorted multiset of pending keys; the
  // heap's minimum must equal the reference's front at every pop.
  util::Rng rng{42};
  EventHeap<Event> heap;
  std::vector<Key> pending;  // kept sorted: the reference pending set
  std::uint64_t seq = 0;
  const auto pushBoth = [&](std::int64_t timePs) {
    heap.push(Event{timePs, seq, {}});
    const Key key{timePs, seq++};
    pending.insert(std::upper_bound(pending.begin(), pending.end(), key), key);
  };
  for (int i = 0; i < 200; ++i) pushBoth(static_cast<std::int64_t>(rng() % 1000));
  std::size_t pops = 0;
  while (!heap.empty()) {
    ASSERT_FALSE(pending.empty());
    ASSERT_EQ(heap.top().timePs, pending.front().first);
    const Event event = heap.pop();
    ASSERT_EQ(Key(event.timePs, event.seq), pending.front()) << "pop " << pops;
    pending.erase(pending.begin());
    ++pops;
    const std::int64_t nowPs = event.timePs;
    if (seq < 4000) {
      const std::uint64_t kind = rng() % 8;
      const std::int64_t delta =
          kind <= 1   ? 0                                      // tie with now
          : kind == 7 ? static_cast<std::int64_t>(             // far hop
                            3'000'000'000ull + rng() % 50'000'000'000ull)
                      : static_cast<std::int64_t>(rng() % 30'000'000ull);
      pushBoth(nowPs + delta);
      if (kind == 0) pushBoth(nowPs + delta);  // a second same-time tie
    }
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(pops, seq);
}

TEST(SymbolTable, InternsDenselyInFirstSightOrder) {
  SymbolTable symbols;
  const LaneId a = symbols.lane("PRR0");
  const LaneId b = symbols.lane("config");
  const LabelId l = symbols.label("compute");
  EXPECT_EQ(a.index(), 0u);
  EXPECT_EQ(b.index(), 1u);
  EXPECT_EQ(l.index(), 0u);
  // Re-interning returns the same id; lanes and labels pool independently.
  EXPECT_EQ(symbols.lane("PRR0"), a);
  EXPECT_EQ(symbols.laneCount(), 2u);
  EXPECT_EQ(symbols.labelCount(), 1u);
  EXPECT_EQ(symbols.laneName(a), "PRR0");
  EXPECT_EQ(symbols.labelName(l), "compute");
  EXPECT_EQ(symbols.findLane("config"), b);
  EXPECT_FALSE(symbols.findLane("never-interned").valid());
}

TEST(SymbolTable, CopiesKeepNamesAndIdsStable) {
  SymbolTable symbols;
  const LaneId a = symbols.lane("HT-in");
  SymbolTable copy = symbols;
  EXPECT_EQ(copy.laneName(a), "HT-in");
  EXPECT_EQ(copy.lane("HT-in"), a);
  // Interning into the copy must not disturb the original.
  copy.lane("HT-out");
  EXPECT_EQ(symbols.laneCount(), 1u);
  EXPECT_EQ(copy.laneCount(), 2u);
}

TEST(TimelineAccumulators, MatchARecomputeFromTheSpans) {
  Timeline tl;
  const LaneId prr0 = tl.lane("PRR0");
  const LaneId prr1 = tl.lane("PRR1");
  const LabelId compute = tl.label("compute");
  util::Rng rng{7};
  std::vector<std::int64_t> busy(2, 0);
  std::int64_t horizon = 0;
  for (int i = 0; i < 500; ++i) {
    const auto start = static_cast<std::int64_t>(rng() % 1'000'000);
    const auto len = static_cast<std::int64_t>(rng() % 10'000);
    const std::size_t laneIdx = rng() % 2;
    tl.record(laneIdx == 0 ? prr0 : prr1, compute, '#',
              Time::picoseconds(start), Time::picoseconds(start + len));
    busy[laneIdx] += len;
    horizon = std::max(horizon, start + len);
  }
  EXPECT_EQ(tl.laneBusy(prr0).ps(), busy[0]);
  EXPECT_EQ(tl.laneBusy(prr1).ps(), busy[1]);
  EXPECT_EQ(tl.laneBusy("PRR1"), tl.laneBusy(prr1));
  EXPECT_EQ(tl.horizon().ps(), horizon);
  // Never-recorded lanes read as zero through the name-based lookup.
  EXPECT_EQ(tl.laneBusy("not-a-lane"), Time::zero());
}

TEST(FrameArena, RecyclesABlockThroughRepeatedReleaseCycles) {
  // Regression for the free-list header clobber: releasing a block and
  // reallocating it twice must keep the size-class header intact, so the
  // third release still routes to the right free list.
  detail::FrameArena arena;
  void* first = arena.allocate(200);
  std::memset(first, 0xAB, 200);  // simulate a live frame overwriting all bytes
  arena.release(first);
  void* second = arena.allocate(200);
  EXPECT_EQ(second, first);  // same size class -> recycled block
  std::memset(second, 0xCD, 200);
  arena.release(second);
  void* third = arena.allocate(200);
  EXPECT_EQ(third, first);
  arena.release(third);
}

TEST(FrameArena, SizeClassesDoNotAliasEachOther) {
  detail::FrameArena arena;
  void* small = arena.allocate(64);
  void* large = arena.allocate(1024);
  arena.release(small);
  arena.release(large);
  // Each class recycles its own block.
  EXPECT_EQ(arena.allocate(1024), large);
  EXPECT_EQ(arena.allocate(64), small);
}

TEST(FrameArena, OversizeBlocksRoundTripThroughTheGlobalHeap) {
  detail::FrameArena arena;
  void* huge = arena.allocate(1 << 20);
  std::memset(huge, 0x5A, 1 << 20);
  arena.release(huge);  // must not be retained in a size-class list
  void* next = arena.allocate(1 << 20);
  arena.release(next);
}

}  // namespace
}  // namespace prtr::sim
