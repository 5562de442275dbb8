#pragma once
/// \file icap_controller.hpp
/// The work-around that enables PRTR on the Cray XD1 (paper section 4.1,
/// Figure 7): a control circuit in the static region that receives partial
/// bitstreams from the host over the (shared) HyperTransport input channel,
/// buffers them in BRAM, and feeds the ICAP port.
///
/// Timing model: the host pushes chunk-sized pieces over the input link
/// into a bounded BRAM buffer; an FSM drains the buffer into ICAP at
/// (wordBytes) bytes per (icapCyclesPerWord + fsmOverheadCyclesPerWord)
/// clock cycles. With the calibrated 9 overhead cycles per 32-bit word the
/// effective throughput is 66 MHz * 4/13 B/cycle = 20.31 MB/s, matching the
/// paper's measured 43.48 ms / 19.77 ms partial configuration times.
///
/// Each chunk's drain time is rounded on its own (drainTime: whole words,
/// then whole cycles, then whole ps), so an uncontended load of `wire`
/// bytes takes exactly hostLink.occupancy(first chunk) +
/// floor(wire / chunk) x drainTime(chunk) + drainTime(wire mod chunk):
/// the producer runs ~70x faster than the drain, so the drain never waits
/// after the first chunk (tests/config_icap_oracle_test.cpp checks this to
/// the ps). The drain computes drainTime(chunk) and drainTime(wire mod
/// chunk) once per load, so its per-chunk step does no division or
/// rounding.
///
/// The producer and the drain are one state machine per load (Pipeline),
/// not two coroutines: the buffer is a count of chunks, and each side keeps
/// at most one kernel event of its own (sim::KeptEvent), plus the join.
/// Every event is the one a producer coroutine, a drain coroutine, a
/// sim::Channel and a sim::WaitGroup would schedule, at the same point and
/// under the same seq: a chunk's transfer completion, a hand-off wake at a
/// put or a get, a drain completion, and the join that wakes the load
/// (tests/config_icap_contended_test.cpp runs that reference beside it).
/// Whichever side runs dispatches every next kept event in place, so an
/// uncontended chunk costs a few compares instead of heap operations and
/// coroutine switches. An event that is not next is parked under one of
/// two lane handles: the load's for drain and join events, a producer lane
/// coroutine's for producer events. When the host link is busy or has a
/// fault hook, the producer lane awaits link.transfer() itself, exactly as
/// a producer coroutine would; a transfer that aborts ends the producer,
/// the drain empties the buffer, and load() rethrows the abort.

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <vector>

#include "bitstream/format.hpp"
#include "config/memory.hpp"
#include "config/port.hpp"
#include "fabric/resources.hpp"
#include "sim/link.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace prtr::config {

/// Tunable controller parameters (defaults = Cray XD1 calibration).
struct IcapTiming {
  std::uint32_t wordBytes = 4;              ///< FSM word size
  std::uint32_t icapCyclesPerWord = 4;      ///< 8-bit port: 4 cycles/word
  std::uint32_t fsmOverheadCyclesPerWord = 9;  ///< BRAM read + handshake FSM
  util::Bytes chunkBytes = util::Bytes::kibi(2);  ///< host transfer granule
  std::size_t bufferChunks = 8;             ///< BRAM buffer: 8 x 2 KiB = 16 KiB
  /// Multi-frame-write compression (compress.hpp): identical frame
  /// payloads stream once; repeated frames cost an address word only.
  /// Off by default — the paper's controller writes every frame.
  bool multiFrameWrite = false;
};

/// Fault imposed on a single ICAP load by an attached hook (see src/fault):
/// the pipeline streams only `completedFraction` of the wire bytes, the load
/// is not applied, and `abort` is rethrown from load().
struct IcapFault {
  double completedFraction = 0.0;  ///< clamped to [0, 1]
  std::exception_ptr abort{};
};

/// Consulted once per load, before the pipeline starts. Returning nullopt
/// leaves the load untouched.
using IcapFaultHook =
    std::function<std::optional<IcapFault>(const bitstream::Bitstream&)>;

/// Invoked after a stream (or, on frame-granular repairs, a frame subset of
/// it — `frames` null means "the whole stream") has been applied, so a fault
/// layer can corrupt the words that were just written.
using IcapWriteFaultHook =
    std::function<void(const bitstream::ParsedStream& stream,
                       const std::vector<std::uint32_t>* frames)>;

/// The reconfiguration control unit.
class IcapController {
 public:
  IcapController(sim::Simulator& sim, ConfigMemory& memory,
                 sim::SimplexLink& hostInputLink, Port port = makeIcapV2(),
                 IcapTiming timing = {});

  /// Coroutine: streams `stream` through the buffer pipeline into ICAP and
  /// applies it to configuration memory. Loads serialize on the single
  /// ICAP port. Throws ConfigError for full streams (ICAP on an operating
  /// device is for partials) and BitstreamError for invalid streams.
  [[nodiscard]] sim::Process load(const bitstream::Bitstream& stream);

  /// FSM drain time for `size` buffered bytes.
  [[nodiscard]] util::Time drainTime(util::Bytes size) const noexcept;

  /// Steady-state effective throughput of the drain FSM.
  [[nodiscard]] util::DataRate effectiveThroughput() const noexcept;

  /// Fabric cost of the controller: the paper's Table 1 "PR Controller"
  /// row (418 LUTs, 432 FFs, 8 BRAMs, 66 MHz).
  [[nodiscard]] static fabric::ResourceVec resourceFootprint() noexcept {
    return fabric::ResourceVec{418, 432, 8, 0, 0};
  }
  [[nodiscard]] static util::Frequency fabricClock() noexcept {
    return util::Frequency::megahertz(66);
  }

  [[nodiscard]] const Port& port() const noexcept { return port_; }
  [[nodiscard]] const IcapTiming& timing() const noexcept { return timing_; }
  [[nodiscard]] std::uint64_t loadsPerformed() const noexcept { return loads_; }
  /// Total bytes streamed into the ICAP port (wire bytes, MFW-aware).
  [[nodiscard]] std::uint64_t bytesWritten() const noexcept {
    return bytesWritten_;
  }
  /// Accumulated time loads spent queued on the busy ICAP port.
  [[nodiscard]] util::Time contentionTime() const noexcept {
    return contention_;
  }

  /// Bytes that must cross the host link / drain into ICAP for `stream`
  /// under the configured mode (raw size, or the MFW wire size).
  [[nodiscard]] util::Bytes wireBytes(const bitstream::Bitstream& stream) const;

  /// Installs (or clears, with nullptr) the per-load fault hook.
  void setFaultHook(IcapFaultHook hook) { faultHook_ = std::move(hook); }
  /// Installs (or clears) the post-apply write-fault hook.
  void setWriteFaultHook(IcapWriteFaultHook hook) {
    writeFaultHook_ = std::move(hook);
  }
  /// Runs the write-fault hook over `frames` of `stream` — used by the
  /// recovery runtime so frame-granular repairs are as fallible as the
  /// original writes.
  void applyWriteFaults(const bitstream::ParsedStream& stream,
                        const std::vector<std::uint32_t>& frames) {
    if (writeFaultHook_) writeFaultHook_(stream, &frames);
  }

  /// Loads aborted mid-stream by an injected fault.
  [[nodiscard]] std::uint64_t abortedLoads() const noexcept {
    return abortedLoads_;
  }

  /// The configuration memory this controller writes into.
  [[nodiscard]] ConfigMemory& memory() noexcept { return *memory_; }

 private:
  class Pipeline;

  sim::Simulator* sim_;
  ConfigMemory* memory_;
  sim::SimplexLink* hostLink_;
  Port port_;
  IcapTiming timing_;
  sim::Semaphore icapBusy_;
  IcapFaultHook faultHook_{};
  IcapWriteFaultHook writeFaultHook_{};
  std::uint64_t loads_ = 0;
  std::uint64_t abortedLoads_ = 0;
  std::uint64_t bytesWritten_ = 0;
  util::Time contention_;
};

}  // namespace prtr::config
