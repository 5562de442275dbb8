// Contended reference oracle for the ICAP pipeline (paper section 4.1).
//
// config_icap_oracle_test checks every uncontended load against a closed
// form. A load whose HT-in transfers queue behind other traffic, or go
// through a link fault hook, has no closed form: its chunks interleave with
// whatever else the link carries. This test checks that case against a
// reference pipeline written from public kernel primitives only:
//
//   * a producer that moves the wire bytes in chunk-sized link.transfer()s
//     and puts each chunk into a sim::Channel of bufferChunks slots,
//   * a drain that gets each chunk and holds it for drainTime(chunk) with
//     sim.delay(),
//   * a sim::WaitGroup that joins the two before the load returns.
//
// Seeded interferers share the link with the load: HT-in transfers of
// several sizes, zero-delay wakes (same-instant yields and semaphore
// hand-offs) and delays built from the pipeline's own chunk occupancy and
// drain time, so their events tie with the pipeline's at equal instants.
// Each world runs twice, once loading through the reference and once
// through IcapController::load, with a link fault hook off and on. The two
// runs must process the same number of kernel events, finish every load at
// the same ps, move the same link bytes and transfers (contended ones too),
// and show every interferer the same now() at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bitstream/library.hpp"
#include "bitstream/parser.hpp"
#include "config/icap_controller.hpp"
#include "sim/channel.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "xd1/node.hpp"

namespace prtr {
namespace {

using util::Bytes;
using util::Time;

// ---- The reference pipeline -------------------------------------------

sim::Process referenceProduce(sim::SimplexLink& link,
                              sim::Channel<std::uint64_t>& buffer,
                              sim::WaitGroup& join, std::uint64_t wire,
                              std::uint64_t chunk) {
  for (std::uint64_t remaining = wire; remaining > 0;) {
    const std::uint64_t size = std::min(remaining, chunk);
    co_await link.transfer(Bytes{size});
    co_await buffer.put(size);
    remaining -= size;
  }
  join.done();
}

sim::Process referenceDrain(sim::Simulator& sim,
                            const config::IcapController& icap,
                            sim::Channel<std::uint64_t>& buffer,
                            sim::WaitGroup& join, std::uint64_t wire) {
  for (std::uint64_t remaining = wire; remaining > 0;) {
    const std::uint64_t size = co_await buffer.get();
    co_await sim.delay(icap.drainTime(Bytes{size}));
    remaining -= size;
  }
  join.done();
}

/// One load through the reference pipeline. Loads are issued one at a time
/// here, so the ICAP port is never queued for.
sim::Process referenceLoad(sim::Simulator& sim, sim::SimplexLink& link,
                           const config::IcapController& icap,
                           const bitstream::Bitstream& stream) {
  const std::uint64_t wire = icap.wireBytes(stream).count();
  sim::Channel<std::uint64_t> buffer{sim, icap.timing().bufferChunks};
  sim::WaitGroup join{sim};
  join.add(2);
  sim.spawn(referenceProduce(link, buffer, join, wire,
                             icap.timing().chunkBytes.count()));
  sim.spawn(referenceDrain(sim, icap, buffer, join, wire));
  co_await join.wait();
}

// ---- One world: a node, its loads and its interferers ------------------

enum class Pipeline { kReference, kController };

/// Awaitable that reschedules the caller at the current instant.
struct YieldNow {
  sim::Simulator* sim;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim->scheduleAt(sim->now(), h);
  }
  void await_resume() const noexcept {}
};

enum class OpKind { kTransfer, kDelay, kYield, kAcquire, kRelease };

struct Op {
  OpKind kind;
  std::int64_t arg;  ///< transfer bytes or delay ps
};

using Program = std::vector<Op>;

/// Seeded interferer programs. Delays are drawn from the pipeline's own
/// chunk occupancy and drain time (and small sums of them), so interferer
/// events land on the instants of chunk events.
std::vector<Program> interferers(std::uint64_t seed, Time chunkOccupancy,
                                 Time chunkDrain) {
  util::Rng rng{seed};
  const std::int64_t occ = chunkOccupancy.ps();
  const std::int64_t drain = chunkDrain.ps();
  const std::int64_t delays[] = {0,     occ,          drain,
                                 2 * drain, occ + drain, 5 * drain + occ,
                                 17 * drain, 1};
  const std::int64_t sizes[] = {512, 2048, 2048, 8192, 65536};
  std::vector<Program> programs(1 + rng.below(4));
  for (Program& program : programs) {
    const std::uint64_t length = 12 + rng.below(30);
    for (std::uint64_t i = 0; i < length; ++i) {
      switch (rng.below(6)) {
        case 0:
        case 1:
          program.push_back({OpKind::kTransfer, sizes[rng.below(5)]});
          break;
        case 2: program.push_back({OpKind::kDelay, delays[rng.below(8)]}); break;
        case 3: program.push_back({OpKind::kYield, 0}); break;
        case 4: program.push_back({OpKind::kAcquire, 0}); break;
        default: program.push_back({OpKind::kRelease, 0}); break;
      }
    }
  }
  return programs;
}

/// What one run observed; two runs of a world must compare equal.
struct Outcome {
  std::uint64_t events = 0;
  std::vector<std::int64_t> loadEnds;
  std::uint64_t linkBytes = 0;
  std::uint64_t linkTransfers = 0;
  std::uint64_t contended = 0;
  std::vector<std::vector<std::int64_t>> interfererLog;

  bool operator==(const Outcome&) const = default;
};

struct World {
  std::uint64_t seed = 0;  ///< 0: no interferers
  bool linkFaultHook = false;
};

class Blade {
 public:
  explicit Blade(Pipeline pipeline) : pipeline_(pipeline) {
    node_.configMemory().applyFull(
        *bitstream::parse(library_.full(), node_.device()));
  }

  sim::SimplexLink& link() { return node_.linkIn(); }
  config::IcapController& icap() { return node_.icap(); }
  const bitstream::Bitstream& stream(std::size_t prr, bitstream::ModuleId id) {
    return library_.modulePartial(prr, id);
  }

  Outcome play(const World& world,
               const std::vector<const bitstream::Bitstream*>& loads) {
    if (world.linkFaultHook) {
      // Deterministic stalls on every third transfer; every transfer on a
      // hooked link takes the contended path.
      link().setFaultHook(
          [calls = std::uint64_t{0}](const sim::SimplexLink&,
                                     Bytes) mutable
              -> std::optional<sim::TransferFault> {
            if (++calls % 3 != 0) return std::nullopt;
            sim::TransferFault fault;
            fault.stall = Time::nanoseconds(700);
            return fault;
          });
    }
    sim_.spawn(loader(loads));
    if (world.seed != 0) {
      const Time occ = link().occupancy(icap().timing().chunkBytes);
      const Time drain = icap().drainTime(icap().timing().chunkBytes);
      programs_ = interferers(world.seed, occ, drain);
      outcome_.interfererLog.resize(programs_.size());
      for (std::size_t i = 0; i < programs_.size(); ++i) {
        sim_.spawn(interferer(i));
      }
    }
    sim_.run();
    outcome_.events = sim_.eventsProcessed();
    outcome_.linkBytes = link().totalBytes().count();
    outcome_.linkTransfers = link().totalTransfers();
    outcome_.contended = link().contendedTransfers();
    return outcome_;
  }

 private:
  sim::Process loader(std::vector<const bitstream::Bitstream*> loads) {
    for (const bitstream::Bitstream* stream : loads) {
      if (pipeline_ == Pipeline::kReference) {
        co_await referenceLoad(sim_, link(), icap(), *stream);
      } else {
        co_await icap().load(*stream);
      }
      outcome_.loadEnds.push_back(sim_.now().ps());
    }
  }

  sim::Process interferer(std::size_t index) {
    std::vector<std::int64_t>& log = outcome_.interfererLog[index];
    for (const Op& op : programs_[index]) {
      log.push_back(sim_.now().ps());
      switch (op.kind) {
        case OpKind::kTransfer:
          co_await link().transfer(Bytes{static_cast<std::uint64_t>(op.arg)});
          break;
        case OpKind::kDelay:
          co_await sim_.delay(Time::picoseconds(op.arg));
          break;
        case OpKind::kYield: co_await YieldNow{&sim_}; break;
        case OpKind::kAcquire: co_await permits_.acquire(); break;
        case OpKind::kRelease: permits_.release(); break;
      }
    }
    log.push_back(sim_.now().ps());
  }

  Pipeline pipeline_;
  sim::Simulator sim_;
  xd1::Node node_{sim_};
  bitstream::Library library_{node_.floorplan(),
                              {{1, "full", 1.0}, {2, "sparse", 0.13}}};
  sim::Semaphore permits_{sim_, 1};
  std::vector<Program> programs_;
  Outcome outcome_;
};

Outcome play(Pipeline pipeline, const World& world) {
  Blade run{pipeline};
  return run.play(world, {&run.stream(0, 1), &run.stream(1, 2),
                          &run.stream(0, 2)});
}

TEST(IcapContendedOracle, ReferenceReproducesTheDualPrrLoadPin) {
  // The reference alone, one dual-PRR partial: the same 590 kernel events
  // and 198 HT-in transfers tests/integration_test.cpp pins for the
  // controller.
  Blade run{Pipeline::kReference};
  const Outcome outcome = run.play(World{}, {&run.stream(0, 1)});
  EXPECT_EQ(run.stream(0, 1).size().count(), 404388u);
  EXPECT_EQ(outcome.events, 590u);
  EXPECT_EQ(outcome.linkTransfers, 198u);
  EXPECT_EQ(outcome.contended, 0u);
}

TEST(IcapContendedOracle, UncontendedLoadsMatchTheReference) {
  for (const bool hook : {false, true}) {
    SCOPED_TRACE(hook ? "link fault hook" : "no hook");
    const World world{0, hook};
    EXPECT_EQ(play(Pipeline::kController, world),
              play(Pipeline::kReference, world));
  }
}

TEST(IcapContendedOracle, ContendedLoadsMatchTheReference) {
  const Outcome alone = play(Pipeline::kReference, World{});
  std::uint64_t delayedWorlds = 0;
  std::uint64_t tiedSteps = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const bool hook : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (hook ? ", link fault hook" : ", no hook"));
      const World world{seed, hook};
      const Outcome reference = play(Pipeline::kReference, world);
      const Outcome controller = play(Pipeline::kController, world);
      ASSERT_EQ(controller.interfererLog, reference.interfererLog);
      EXPECT_EQ(controller.events, reference.events);
      EXPECT_EQ(controller.loadEnds, reference.loadEnds);
      EXPECT_EQ(controller.linkBytes, reference.linkBytes);
      EXPECT_EQ(controller.linkTransfers, reference.linkTransfers);
      EXPECT_EQ(controller.contended, reference.contended);
      if (!hook && reference.loadEnds != alone.loadEnds) ++delayedWorlds;
      for (const auto& log : reference.interfererLog) {
        for (std::size_t i = 1; i < log.size(); ++i) {
          if (log[i] == log[i - 1]) ++tiedSteps;
        }
      }
    }
  }
  // The worlds must actually delay the pipeline's transfers and tie at
  // equal instants, or the check shows nothing.
  EXPECT_GT(delayedWorlds, 30u);
  EXPECT_GT(tiedSteps, 500u);
}

TEST(IcapContendedOracle, AnAbortedTransferFailsTheLoadAfterTheDrain) {
  // The fifth HT-in transfer aborts after 1,000 B. The producer stops
  // there; the drain still moves the four chunks the buffer took, and then
  // load() rethrows the abort and applies nothing.
  sim::Simulator sim;
  xd1::Node node{sim};
  bitstream::Library library{node.floorplan(), {{1, "full", 1.0}}};
  node.configMemory().applyFull(
      *bitstream::parse(library.full(), node.device()));
  sim::SimplexLink& link = node.linkIn();
  config::IcapController& icap = node.icap();
  link.setFaultHook([calls = 0](const sim::SimplexLink&, Bytes) mutable
                        -> std::optional<sim::TransferFault> {
    if (++calls != 5) return std::nullopt;
    sim::TransferFault fault;
    fault.completedBytes = Bytes{1000};
    fault.abort = std::make_exception_ptr(util::SimulationError{"HT-in abort"});
    return fault;
  });
  bool threw = false;
  Time end;
  const auto load = [&](const bitstream::Bitstream& stream) -> sim::Process {
    try {
      co_await icap.load(stream);
    } catch (const util::SimulationError&) {
      threw = true;
    }
    end = sim.now();
  };
  sim.spawn(load(library.modulePartial(0, 1)));
  sim.run();
  const Bytes chunk = icap.timing().chunkBytes;
  EXPECT_TRUE(threw);
  EXPECT_EQ(icap.loadsPerformed(), 0u);
  EXPECT_EQ(link.totalTransfers(), 4u);
  EXPECT_EQ(link.totalBytes(), Bytes{4 * chunk.count() + 1000});
  EXPECT_EQ(end, link.occupancy(chunk) + icap.drainTime(chunk) * 4);
}

}  // namespace
}  // namespace prtr
