// Tests for the discrete-event kernel: scheduling, coroutine processes,
// synchronization primitives, channels, links (including the QDR bank
// ports built on them), and the timeline tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "xd1/memory_bank.hpp"

namespace prtr::sim {
namespace {

using util::Time;

Process delayAndMark(Simulator& sim, Time delay, std::vector<int>& order,
                     int tag) {
  co_await sim.delay(delay);
  order.push_back(tag);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.spawn(delayAndMark(sim, Time::microseconds(30), order, 3));
  sim.spawn(delayAndMark(sim, Time::microseconds(10), order, 1));
  sim.spawn(delayAndMark(sim, Time::microseconds(20), order, 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::microseconds(30));
}

TEST(SimulatorTest, TiesBreakInSpawnOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.spawn(delayAndMark(sim, Time::microseconds(7), order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ZeroDelayDoesNotSuspend) {
  Simulator sim;
  bool ran = false;
  auto proc = [](Simulator& s, bool& flag) -> Process {
    co_await s.delay(Time::zero());
    flag = true;
  };
  sim.spawn(proc(sim, ran));
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.spawn(delayAndMark(sim, Time::milliseconds(1), order, 1));
  sim.spawn(delayAndMark(sim, Time::milliseconds(5), order, 5));
  sim.runUntil(Time::milliseconds(2));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), Time::milliseconds(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(SimulatorTest, ChildProcessesComposeSequentially) {
  Simulator sim;
  auto child = [](Simulator& s) -> Process {
    co_await s.delay(Time::microseconds(5));
  };
  Time finished;
  auto parent = [&](Simulator& s) -> Process {
    co_await child(s);
    co_await child(s);
    finished = s.now();
  };
  sim.spawn(parent(sim));
  sim.run();
  EXPECT_EQ(finished, Time::microseconds(10));
}

TEST(SimulatorTest, ChildExceptionPropagatesToParent) {
  Simulator sim;
  auto thrower = [](Simulator& s) -> Process {
    co_await s.delay(Time::microseconds(1));
    throw util::SimulationError{"boom"};
  };
  bool caught = false;
  auto parent = [&](Simulator& s) -> Process {
    try {
      co_await thrower(s);
    } catch (const util::SimulationError&) {
      caught = true;
    }
  };
  sim.spawn(parent(sim));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(SimulatorTest, RootExceptionSurfacesFromRun) {
  Simulator sim;
  auto thrower = [](Simulator& s) -> Process {
    co_await s.delay(Time::microseconds(1));
    throw util::SimulationError{"root boom"};
  };
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), util::SimulationError);
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  auto late = [](Simulator& s) -> Process {
    co_await s.delay(Time::microseconds(5));
    s.scheduleAt(Time::microseconds(1), std::noop_coroutine());
  };
  sim.spawn(late(sim));
  EXPECT_THROW(sim.run(), util::SimulationError);
}

TEST(SimulatorTest, ManyShortProcessesAreReaped) {
  Simulator sim;
  auto quick = [](Simulator& s) -> Process { co_await s.delay(Time::zero()); };
  auto spawner = [&](Simulator& s) -> Process {
    for (int i = 0; i < 10000; ++i) {
      s.spawn(quick(s));
      co_await s.delay(Time::nanoseconds(1));
    }
  };
  sim.spawn(spawner(sim));
  sim.run();
  // Finished roots must have been reclaimed along the way.
  EXPECT_LT(sim.rootCount(), 10001u);
  EXPECT_GT(sim.eventsProcessed(), 10000u);
}

TEST(SimulatorTest, RootsAreReapedWhileDelaysRunInPlace) {
  // Each round spawns a root that finishes on its first event, then parks
  // one delay behind that spawn and runs two more in place (nothing else is
  // pending). Four events per round, two of them dispatched by the loop at
  // counts 4k+2 and 4k+3: a sweep keyed to the event count could never
  // fire, so finished roots must be reclaimed by a count of spawns.
  Simulator sim;
  std::size_t peakRoots = 0;
  auto quick = [](Simulator&) -> Process { co_return; };
  auto spawner = [&](Simulator& s) -> Process {
    for (int i = 0; i < 10000; ++i) {
      s.spawn(quick(s));
      peakRoots = std::max(peakRoots, s.rootCount());
      co_await s.delay(Time::nanoseconds(1));
      co_await s.delay(Time::nanoseconds(1));
      co_await s.delay(Time::nanoseconds(1));
    }
  };
  sim.spawn(spawner(sim));
  sim.run();
  EXPECT_EQ(sim.eventsProcessed(), 40001u);
  EXPECT_EQ(sim.now(), Time::nanoseconds(30000));
  EXPECT_LE(peakRoots, 130u);
  EXPECT_EQ(sim.rootCount(), 0u);
}

TEST(ConditionTest, NotifyAllWakesEveryWaiter) {
  Simulator sim;
  Condition cond{sim};
  int woken = 0;
  auto waiter = [&](Simulator&) -> Process {
    co_await cond.wait();
    ++woken;
  };
  auto notifier = [&](Simulator& s) -> Process {
    co_await s.delay(Time::microseconds(3));
    cond.notifyAll();
  };
  sim.spawn(waiter(sim));
  sim.spawn(waiter(sim));
  sim.spawn(notifier(sim));
  sim.run();
  EXPECT_EQ(woken, 2);
}

TEST(SemaphoreTest, MutualExclusionSerializes) {
  Simulator sim;
  Semaphore sem{sim, 1};
  std::vector<Time> entries;
  auto worker = [&](Simulator& s) -> Process {
    co_await sem.acquire();
    entries.push_back(s.now());
    co_await s.delay(Time::microseconds(10));
    sem.release();
  };
  for (int i = 0; i < 3; ++i) sim.spawn(worker(sim));
  sim.run();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], Time::zero());
  EXPECT_EQ(entries[1], Time::microseconds(10));
  EXPECT_EQ(entries[2], Time::microseconds(20));
}

TEST(SemaphoreTest, CountingAllowsParallelism) {
  Simulator sim;
  Semaphore sem{sim, 2};
  std::vector<Time> entries;
  auto worker = [&](Simulator& s) -> Process {
    co_await sem.acquire();
    entries.push_back(s.now());
    co_await s.delay(Time::microseconds(10));
    sem.release();
  };
  for (int i = 0; i < 3; ++i) sim.spawn(worker(sim));
  sim.run();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], Time::zero());
  EXPECT_EQ(entries[1], Time::zero());
  EXPECT_EQ(entries[2], Time::microseconds(10));
}

TEST(WaitGroupTest, WaitsForAllWork) {
  Simulator sim;
  WaitGroup wg{sim};
  wg.add(2);
  auto worker = [&](Simulator& s, Time d) -> Process {
    co_await s.delay(d);
    wg.done();
  };
  Time joined;
  auto joiner = [&](Simulator& s) -> Process {
    co_await wg.wait();
    joined = s.now();
  };
  sim.spawn(worker(sim, Time::microseconds(5)));
  sim.spawn(worker(sim, Time::microseconds(9)));
  sim.spawn(joiner(sim));
  sim.run();
  EXPECT_EQ(joined, Time::microseconds(9));
  EXPECT_EQ(wg.pending(), 0);
}

TEST(ChannelTest, BackpressureThrottlesProducer) {
  Simulator sim;
  auto ch = std::make_unique<Channel<int>>(sim, 2);
  long sum = 0;
  auto producer = [&](Simulator& s) -> Process {
    for (int i = 0; i < 10; ++i) {
      co_await s.delay(Time::microseconds(1));
      co_await ch->put(i);
    }
  };
  auto consumer = [&](Simulator& s) -> Process {
    for (int i = 0; i < 10; ++i) {
      const int v = co_await ch->get();
      sum += v;
      co_await s.delay(Time::microseconds(3));
    }
  };
  sim.spawn(producer(sim));
  sim.spawn(consumer(sim));
  sim.run();
  EXPECT_EQ(sum, 45);
  // Consumer paced at 3 us/item: last item consumed at ~31 us.
  EXPECT_EQ(sim.now(), Time::microseconds(31));
  EXPECT_TRUE(ch->empty());
}

TEST(ChannelTest, ConsumerBlocksOnEmpty) {
  Simulator sim;
  auto ch = std::make_unique<Channel<int>>(sim, 4);
  Time got;
  auto consumer = [&](Simulator& s) -> Process {
    (void)co_await ch->get();
    got = s.now();
  };
  auto producer = [&](Simulator& s) -> Process {
    co_await s.delay(Time::microseconds(8));
    co_await ch->put(1);
  };
  sim.spawn(consumer(sim));
  sim.spawn(producer(sim));
  sim.run();
  EXPECT_EQ(got, Time::microseconds(8));
}

TEST(ChannelTest, RejectsZeroCapacity) {
  Simulator sim;
  EXPECT_THROW((Channel<int>{sim, 0}), util::DomainError);
}

TEST(LinkTest, TransferTimeMatchesRate) {
  Simulator sim;
  SimplexLink link{sim, "test", util::DataRate::megabytesPerSecond(100)};
  auto xfer = [&](Simulator&) -> Process {
    co_await link.transfer(util::Bytes{1'000'000});
  };
  sim.spawn(xfer(sim));
  sim.run();
  EXPECT_EQ(sim.now(), Time::milliseconds(10));
  EXPECT_EQ(link.totalBytes().count(), 1'000'000u);
  EXPECT_EQ(link.totalTransfers(), 1u);
}

TEST(LinkTest, ConcurrentTransfersSerialize) {
  Simulator sim;
  SimplexLink link{sim, "test", util::DataRate::megabytesPerSecond(100)};
  auto xfer = [&](Simulator&) -> Process {
    co_await link.transfer(util::Bytes{500'000});
  };
  sim.spawn(xfer(sim));
  sim.spawn(xfer(sim));
  sim.run();
  EXPECT_EQ(sim.now(), Time::milliseconds(10));  // 2 x 5 ms, serialized
}

TEST(LinkTest, LatencyAddsPerTransfer) {
  Simulator sim;
  SimplexLink link{sim, "lat", util::DataRate::megabytesPerSecond(100),
                   Time::microseconds(2)};
  EXPECT_EQ(link.occupancy(util::Bytes{100'000}),
            Time::microseconds(1002));
}

TEST(LinkTest, ThirdTransferArrivingMidTransferQueuesFifo) {
  // 100 MB/s: 500 kB = 5 ms, 100 kB = 1 ms. A and B start together (B
  // queues behind A); C arrives at 2 ms, mid-A, and queues behind B; D
  // arrives at 12 ms on an idle link.
  Simulator sim;
  SimplexLink link{sim, "test", util::DataRate::megabytesPerSecond(100)};
  std::vector<std::pair<char, Time>> done;
  auto xfer = [&](Simulator& s, char tag, Time start,
                  util::Bytes size) -> Process {
    co_await s.delay(start);
    co_await link.transfer(size);
    done.emplace_back(tag, s.now());
  };
  sim.spawn(xfer(sim, 'A', Time::zero(), util::Bytes{500'000}));
  sim.spawn(xfer(sim, 'B', Time::zero(), util::Bytes{500'000}));
  sim.spawn(xfer(sim, 'C', Time::milliseconds(2), util::Bytes{100'000}));
  sim.spawn(xfer(sim, 'D', Time::milliseconds(12), util::Bytes{100'000}));
  sim.run();
  EXPECT_EQ(done, (std::vector<std::pair<char, Time>>{
                      {'A', Time::milliseconds(5)},
                      {'B', Time::milliseconds(10)},
                      {'C', Time::milliseconds(11)},
                      {'D', Time::milliseconds(13)}}));
  EXPECT_EQ(link.totalBytes().count(), 1'200'000u);
  EXPECT_EQ(link.totalTransfers(), 4u);
  // 4 starts + 2 delayed starts + A, D (one occupancy event each) + B, C
  // (a permit hand-off and an occupancy event each).
  EXPECT_EQ(sim.eventsProcessed(), 12u);
}

TEST(LinkTest, ZeroByteTransferOnZeroLatencyLinkAddsNoEvent) {
  Simulator sim;
  SimplexLink link{sim, "test", util::DataRate::megabytesPerSecond(100)};
  bool finished = false;
  auto xfer = [&](Simulator&) -> Process {
    co_await link.transfer(util::Bytes{0});
    finished = true;
  };
  sim.spawn(xfer(sim));
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(sim.eventsProcessed(), 1u);  // the spawn only
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(link.totalTransfers(), 1u);
  EXPECT_EQ(link.totalBytes().count(), 0u);
}

TEST(LinkTest, FaultHookStallsAndAbortsThroughTheAwaitingParent) {
  // 100 MB/s. Transfer 1 (100 kB) stalls 1 ms first; transfer 2 (400 kB)
  // aborts after 200 kB of wire time; with the hook cleared, transfer 3
  // (100 kB) still gets the link, so the abort released it.
  Simulator sim;
  SimplexLink link{sim, "test", util::DataRate::megabytesPerSecond(100)};
  int calls = 0;
  link.setFaultHook([&calls](const SimplexLink&, util::Bytes)
                        -> std::optional<TransferFault> {
    TransferFault fault;
    if (++calls == 1) {
      fault.stall = Time::milliseconds(1);
    } else {
      fault.completedBytes = util::Bytes{200'000};
      fault.abort = std::make_exception_ptr(util::SimulationError{"cut"});
    }
    return fault;
  });
  std::vector<Time> marks;
  bool caught = false;
  auto parent = [&](Simulator& s) -> Process {
    co_await link.transfer(util::Bytes{100'000});
    marks.push_back(s.now());
    try {
      co_await link.transfer(util::Bytes{400'000});
    } catch (const util::SimulationError&) {
      caught = true;
    }
    marks.push_back(s.now());
    link.setFaultHook(nullptr);
    co_await link.transfer(util::Bytes{100'000});
    marks.push_back(s.now());
  };
  sim.spawn(parent(sim));
  sim.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(marks, (std::vector<Time>{Time::milliseconds(2),
                                      Time::milliseconds(4),
                                      Time::milliseconds(5)}));
  // Completed bytes only: 100 kB + the aborted transfer's 200 kB + 100 kB.
  EXPECT_EQ(link.totalBytes().count(), 400'000u);
  EXPECT_EQ(link.totalTransfers(), 2u);
}

TEST(LinkTest, QdrBankReadAndWriteAreAwaitable) {
  // 100 MB/s ports: two reads serialize on the read port (10 ms), while a
  // write overlaps them on the independent write port (5 ms).
  Simulator sim;
  xd1::QdrBank bank{sim, "b0", util::Bytes::mebi(4),
                    util::DataRate::megabytesPerSecond(100)};
  std::vector<Time> ends;
  auto reader = [&](Simulator& s) -> Process {
    co_await bank.read(util::Bytes{500'000});
    co_await bank.read(util::Bytes{500'000});
    ends.push_back(s.now());
  };
  auto writer = [&](Simulator& s) -> Process {
    co_await bank.write(util::Bytes{500'000});
    ends.push_back(s.now());
  };
  sim.spawn(reader(sim));
  sim.spawn(writer(sim));
  sim.run();
  EXPECT_EQ(ends, (std::vector<Time>{Time::milliseconds(5),
                                     Time::milliseconds(10)}));
  EXPECT_EQ(bank.bytesRead().count(), 1'000'000u);
  EXPECT_EQ(bank.bytesWritten().count(), 500'000u);
}

TEST(TimelineTest, RecordsAndRenders) {
  Timeline tl;
  tl.record(tl.lane("PRR0"), tl.label("median"), '#', Time::zero(),
            Time::milliseconds(5));
  tl.record(tl.lane("config"), tl.label("partial"), 'P', Time::milliseconds(1),
            Time::milliseconds(3));
  EXPECT_EQ(tl.spans().size(), 2u);
  EXPECT_EQ(tl.laneBusy("PRR0"), Time::milliseconds(5));
  EXPECT_EQ(tl.horizon(), Time::milliseconds(5));
  const std::string gantt = tl.renderGantt(60);
  EXPECT_NE(gantt.find("PRR0"), std::string::npos);
  EXPECT_NE(gantt.find("config"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find('P'), std::string::npos);
}

TEST(TimelineTest, RejectsNegativeSpan) {
  Timeline tl;
  EXPECT_THROW(tl.record(tl.lane("x"), tl.label("y"), '#',
                         Time::milliseconds(2), Time::milliseconds(1)),
               util::DomainError);
}

// Dependent form so the negative check SFINAEs instead of hard-erroring.
template <typename T>
concept RecordsByStringName = requires(T t, std::string_view name) {
  t.record(name, name, '#', Time::zero(), Time::milliseconds(5));
};

TEST(TimelineTest, StringRecordShimIsGone) {
  // The PR 7 string-name record() shim is removed: record() takes interned
  // ids only. The static_assert pins the removal; the id path below is the
  // one way to write a span.
  static_assert(!RecordsByStringName<Timeline>);
  Timeline tl;
  tl.record(tl.lane("PRR0"), tl.label("median"), '#', Time::zero(),
            Time::milliseconds(5));
  ASSERT_EQ(tl.spans().size(), 1u);
  EXPECT_EQ(tl.laneName(tl.spans()[0].lane), "PRR0");
}

}  // namespace
}  // namespace prtr::sim
