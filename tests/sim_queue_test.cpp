// Kernel regression tests: runUntil edge cases, the kernel's resume order
// (heap + same-instant FIFO) against a reference that keeps one (time, seq)
// ordered pending set, the event heap's pop order against an independent
// sorted reference, the interned symbol table, the O(1) timeline
// accumulators, and the coroutine frame arena's free-list recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/symbols.hpp"
#include "sim/sync.hpp"
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

Process marker(Simulator& sim, std::vector<std::int64_t>& out) {
  out.push_back(sim.now().ps());
  co_return;
}

TEST(RunUntil, PastDeadlineRunsNoPendingSameInstantWake) {
  Simulator sim;
  sim.runUntil(Time::milliseconds(7));
  std::vector<std::int64_t> starts;
  sim.spawn(marker(sim, starts));  // a wake due at now() = 7 ms
  // A deadline before now() runs nothing, not even the same-instant wake,
  // and leaves now() where it was.
  EXPECT_EQ(sim.runUntil(Time::milliseconds(3)), Time::milliseconds(7));
  EXPECT_TRUE(starts.empty());
  EXPECT_EQ(sim.eventsProcessed(), 0u);
  EXPECT_EQ(sim.runUntil(Time::milliseconds(7)), Time::milliseconds(7));
  EXPECT_EQ(starts, (std::vector<std::int64_t>{Time::milliseconds(7).ps()}));
  EXPECT_EQ(sim.eventsProcessed(), 1u);
}

// ---- Kernel order property: seeded random programs run on the Simulator
// must resume in exactly the order of an independent reference that keeps
// one pending set sorted by (time, seq). The programs mix same-instant
// schedules, delay(0) (no event), future delays (which run through in
// place when their wake is next), spawns mid-instant and between runUntil
// calls, semaphore hand-offs, condition broadcasts, pairs of kept events
// held across a suspension, and runUntil deadlines before, at and after
// now(). No step may run past the deadline of the runUntil that runs it.

enum class OpKind {
  kYield,
  kDelay,
  kSpawn,
  kAcquire,
  kRelease,
  kWait,
  kNotify,
  kKeepTwo
};

struct Op {
  OpKind kind;
  std::int64_t arg;  ///< delay ps, spawn program, semaphore or condition
  std::int64_t arg2 = 0;  ///< kKeepTwo: the second kept event's delay
};

using Program = std::vector<Op>;

/// What one process did at one step: (time, process id, program counter).
using LogEntry = std::tuple<std::int64_t, int, std::size_t>;

/// The program counter logged when a kept event of kKeepTwo is dispatched.
constexpr std::size_t kKeptMark = ~std::size_t{0};

struct RandomWorld {
  std::vector<Program> roots;          ///< spawned before the first run
  std::vector<Program> children;       ///< spawned by kSpawn ops
  std::vector<std::int64_t> semCounts;  ///< initial permits
  std::size_t conditions = 0;
  /// Driver steps: a runUntil deadline offset from now() (may be
  /// negative), and whether to spawn children[0] as a root first.
  std::vector<std::pair<std::int64_t, bool>> steps;
};

Op randomOp(util::Rng& rng, const RandomWorld& world, bool allowSpawn) {
  static constexpr std::int64_t kDelays[] = {0, 0, 1'000, 1'000, 2'000, 7'000};
  for (;;) {
    switch (rng() % 8) {
      case 0: return {OpKind::kYield, 0};
      case 1: return {OpKind::kDelay, kDelays[rng() % 6]};
      case 2:
        if (!allowSpawn) continue;
        return {OpKind::kSpawn,
                static_cast<std::int64_t>(rng() % world.children.size())};
      case 3:
        return {OpKind::kAcquire,
                static_cast<std::int64_t>(rng() % world.semCounts.size())};
      case 4:
        return {OpKind::kRelease,
                static_cast<std::int64_t>(rng() % world.semCounts.size())};
      case 5:
        return {OpKind::kWait, static_cast<std::int64_t>(rng() % world.conditions)};
      case 6:
        return {OpKind::kKeepTwo, kDelays[rng() % 6], kDelays[rng() % 6]};
      default:
        return {OpKind::kNotify,
                static_cast<std::int64_t>(rng() % world.conditions)};
    }
  }
}

RandomWorld randomWorld(std::uint64_t seed) {
  util::Rng rng{seed};
  RandomWorld world;
  world.semCounts = {static_cast<std::int64_t>(rng() % 2),
                     static_cast<std::int64_t>(rng() % 3)};
  world.conditions = 2;
  world.children.resize(3);
  for (Program& child : world.children) {
    for (int i = 0; i < 5; ++i) child.push_back(randomOp(rng, world, false));
  }
  world.roots.resize(2 + rng() % 3);
  for (Program& root : world.roots) {
    const std::size_t length = 6 + rng() % 10;
    for (std::size_t i = 0; i < length; ++i) {
      root.push_back(randomOp(rng, world, true));
    }
  }
  for (int i = 0; i < 6; ++i) {
    const auto offset = static_cast<std::int64_t>(rng() % 6) * 1'000 - 2'000;
    world.steps.emplace_back(offset, rng() % 2 == 0);
  }
  return world;
}

/// Awaitable that reschedules the caller at the current instant.
struct YieldNow {
  Simulator* sim;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim->scheduleAt(sim->now(), h); }
  void await_resume() const noexcept {}
};

/// Awaitable that parks the caller on a kept event.
struct Park {
  Simulator* sim;
  KeptEvent event;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim->park(event, h); }
  void await_resume() const noexcept {}
};

/// The Simulator side: the world's programs as coroutines.
struct KernelRun {
  Simulator sim;
  const RandomWorld* world;
  std::vector<std::unique_ptr<Semaphore>> sems;
  std::vector<std::unique_ptr<Condition>> conds;
  std::vector<LogEntry> log;
  int nextPid = 0;
  /// The deadline of the running runUntil (run(): the maximum).
  std::int64_t deadline = std::numeric_limits<std::int64_t>::max();

  void record(int pid, std::size_t pc) {
    EXPECT_LE(sim.now().ps(), deadline) << "ran past the deadline";
    log.emplace_back(sim.now().ps(), pid, pc);
  }

  explicit KernelRun(const RandomWorld& w) : world(&w) {
    for (const std::int64_t count : w.semCounts) {
      sems.push_back(std::make_unique<Semaphore>(sim, count));
    }
    for (std::size_t i = 0; i < w.conditions; ++i) {
      conds.push_back(std::make_unique<Condition>(sim));
    }
  }

  void spawn(const Program& program) { sim.spawn(body(nextPid++, program)); }

  Process body(int pid, const Program& program) {
    for (std::size_t pc = 0; pc < program.size(); ++pc) {
      record(pid, pc);
      const Op& op = program[pc];
      const auto index = static_cast<std::size_t>(op.arg);
      switch (op.kind) {
        case OpKind::kYield: co_await YieldNow{&sim}; break;
        case OpKind::kDelay: co_await sim.delay(Time::picoseconds(op.arg)); break;
        case OpKind::kSpawn: spawn(world->children[index]); break;
        case OpKind::kAcquire: co_await sems[index]->acquire(); break;
        case OpKind::kRelease: sems[index]->release(); break;
        case OpKind::kWait: co_await conds[index]->wait(); break;
        case OpKind::kNotify: conds[index]->notifyAll(); break;
        case OpKind::kKeepTwo: {
          // Keep two events with condition 0's wakes between their seqs,
          // then dispatch them in (time, seq) order: each in place when it
          // is next, else parked while the other stays kept.
          const KeptEvent first = sim.keep(sim.now() + Time::picoseconds(op.arg));
          conds[0]->notifyAll();
          const KeptEvent second =
              sim.keep(sim.now() + Time::picoseconds(op.arg2));
          const bool inOrder = first.timePs <= second.timePs;
          for (const KeptEvent& event :
               {inOrder ? first : second, inOrder ? second : first}) {
            if (!sim.dispatchIfNext(event)) co_await Park{&sim, event};
            record(pid, kKeptMark);
          }
          break;
        }
      }
    }
  }
};

/// The reference: the same semantics on one pending set ordered by
/// (time, seq), with no coroutines and no knowledge of the kernel's split
/// between its heap and its same-instant FIFO.
struct ReferenceRun {
  struct Proc {
    const Program* program;
    std::size_t pc = 0;
    int keptLeft = 0;  ///< kKeepTwo wakes still to come
  };
  using Pending = std::tuple<std::int64_t, std::uint64_t, int>;  // time, seq, pid

  const RandomWorld* world;
  std::vector<Proc> procs;
  std::set<Pending> pending;
  std::vector<std::int64_t> semCounts;
  std::vector<std::deque<int>> semWaiters;
  std::vector<std::vector<int>> condWaiters;
  std::vector<LogEntry> log;
  std::int64_t now = 0;
  std::uint64_t seq = 0;
  std::uint64_t resumes = 0;

  explicit ReferenceRun(const RandomWorld& w)
      : world(&w),
        semCounts(w.semCounts),
        semWaiters(w.semCounts.size()),
        condWaiters(w.conditions) {}

  void schedule(std::int64_t at, int pid) { pending.emplace(at, seq++, pid); }

  void spawn(const Program& program) {
    procs.push_back(Proc{&program});
    schedule(now, static_cast<int>(procs.size()) - 1);
  }

  /// Runs `pid` from its program counter until it suspends or ends.
  void resume(int pid) {
    ++resumes;
    if (Proc& proc = procs[static_cast<std::size_t>(pid)]; proc.keptLeft > 0) {
      log.emplace_back(now, pid, kKeptMark);
      if (--proc.keptLeft > 0) return;
    }
    for (;;) {
      Proc& proc = procs[static_cast<std::size_t>(pid)];
      if (proc.pc == proc.program->size()) return;
      const std::size_t pc = proc.pc++;
      log.emplace_back(now, pid, pc);
      const Op op = (*proc.program)[pc];
      const auto index = static_cast<std::size_t>(op.arg);
      switch (op.kind) {
        case OpKind::kYield: schedule(now, pid); return;
        case OpKind::kDelay:
          if (op.arg == 0) break;
          schedule(now + op.arg, pid);
          return;
        case OpKind::kSpawn: spawn(world->children[index]); break;
        case OpKind::kAcquire:
          if (semCounts[index] > 0) {
            --semCounts[index];
            break;
          }
          semWaiters[index].push_back(pid);
          return;
        case OpKind::kRelease:
          if (semWaiters[index].empty()) {
            ++semCounts[index];
          } else {
            schedule(now, semWaiters[index].front());
            semWaiters[index].pop_front();
          }
          break;
        case OpKind::kWait: condWaiters[index].push_back(pid); return;
        case OpKind::kNotify: notify(index); break;
        case OpKind::kKeepTwo:
          schedule(now + op.arg, pid);
          notify(0);
          schedule(now + op.arg2, pid);
          proc.keptLeft = 2;
          return;
      }
    }
  }

  void notify(std::size_t index) {
    for (const int waiter : condWaiters[index]) schedule(now, waiter);
    condWaiters[index].clear();
  }

  void runUntil(std::int64_t deadline) {
    while (!pending.empty() && std::get<0>(*pending.begin()) <= deadline) {
      const auto [at, s, pid] = *pending.begin();
      pending.erase(pending.begin());
      now = at;
      resume(pid);
    }
    now = std::max(now, deadline);
  }
};

TEST(KernelOrder, RandomProgramsResumeInReferenceTimeSeqOrder) {
  std::size_t ties = 0;  // consecutive steps of two processes at one instant
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const RandomWorld world = randomWorld(seed);
    KernelRun kernel{world};
    ReferenceRun reference{world};
    for (const Program& root : world.roots) {
      kernel.spawn(root);
      reference.spawn(root);
    }
    for (const auto& [offset, spawnFirst] : world.steps) {
      if (spawnFirst) {
        kernel.spawn(world.children[0]);
        reference.spawn(world.children[0]);
      }
      const std::int64_t deadline = kernel.sim.now().ps() + offset;
      kernel.deadline = deadline;
      EXPECT_EQ(kernel.sim.runUntil(Time::picoseconds(deadline)).ps(),
                (reference.runUntil(deadline), reference.now))
          << "seed " << seed;
      // Nothing ran ahead of the deadline in place, nor fell behind it.
      EXPECT_EQ(kernel.log.size(), reference.log.size()) << "seed " << seed;
    }
    kernel.deadline = std::numeric_limits<std::int64_t>::max();
    kernel.sim.run();
    reference.runUntil(std::numeric_limits<std::int64_t>::max());
    ASSERT_EQ(kernel.log, reference.log) << "seed " << seed;
    EXPECT_EQ(kernel.sim.eventsProcessed(), reference.resumes) << "seed " << seed;
    for (std::size_t i = 1; i < reference.log.size(); ++i) {
      if (std::get<0>(reference.log[i]) == std::get<0>(reference.log[i - 1]) &&
          std::get<1>(reference.log[i]) != std::get<1>(reference.log[i - 1])) {
        ++ties;
      }
    }
  }
  EXPECT_GT(ties, 1000u) << "the programs must interleave within instants";
}

/// (time, seq) key of an event; the reference order is these keys sorted.
using Key = std::pair<std::int64_t, std::uint64_t>;

/// The payload each test event carries: a function of its seq, so a pop
/// that separated an event's fields would show.
std::uint64_t payloadOf(std::uint64_t seq) { return ~seq * 0x9e3779b97f4a7c15ULL; }

/// Pops every event from `heap` and returns the (time, seq) sequence.
std::vector<Key> drain(EventHeap<std::uint64_t>& heap) {
  std::vector<Key> order;
  while (!heap.empty()) {
    const TimedEvent<std::uint64_t> event = heap.top();
    heap.pop();
    EXPECT_EQ(event.payload, payloadOf(event.seq));
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
  EventHeap<std::uint64_t> heap;
  std::vector<Key> reference;
  for (std::uint64_t seq = 0; seq < 6000; ++seq) {
    const std::int64_t timePs =
        rng() % 4 == 0
            ? static_cast<std::int64_t>(rng() % 100'000'000'000ull)
            : static_cast<std::int64_t>(rng() % 300) * 333'333'333;
    heap.push({timePs, seq, payloadOf(seq)});
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
  EventHeap<std::uint64_t> heap;
  std::vector<Key> pending;  // kept sorted: the reference pending set
  std::uint64_t seq = 0;
  const auto pushBoth = [&](std::int64_t timePs) {
    heap.push({timePs, seq, payloadOf(seq)});
    const Key key{timePs, seq++};
    pending.insert(std::upper_bound(pending.begin(), pending.end(), key), key);
  };
  for (int i = 0; i < 200; ++i) pushBoth(static_cast<std::int64_t>(rng() % 1000));
  std::size_t pops = 0;
  while (!heap.empty()) {
    ASSERT_FALSE(pending.empty());
    const TimedEvent<std::uint64_t> event = heap.top();
    heap.pop();
    ASSERT_EQ(Key(event.timePs, event.seq), pending.front()) << "pop " << pops;
    ASSERT_EQ(event.payload, payloadOf(event.seq)) << "pop " << pops;
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
