#pragma once
/// \file link.hpp
/// A simplex communication link with finite bandwidth, modelled as a
/// serially-reusable resource: one transfer occupies the link for
/// latency + size/rate. Used for the XD1 RapidArray/HyperTransport channels
/// (one instance per direction — the "dual channel link" of paper §4.1).

#include <coroutine>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "util/units.hpp"

namespace prtr::sim {

class SimplexLink;

/// Fault imposed on a single transfer by an attached hook (see src/fault):
/// an extra stall served while holding the link, and/or an abort that burns
/// wire time for `completedBytes` and then rethrows `abort`.
struct TransferFault {
  util::Time stall = util::Time::zero();
  util::Bytes completedBytes{};  ///< only meaningful when `abort` is set
  std::exception_ptr abort{};
};

/// Consulted once per transfer, after the link is acquired. Returning
/// nullopt leaves the transfer untouched.
using TransferFaultHook =
    std::function<std::optional<TransferFault>(const SimplexLink&, util::Bytes)>;

/// One-direction link; transfers serialize FIFO.
class SimplexLink {
 public:
  SimplexLink(Simulator& sim, std::string name, util::DataRate rate,
              util::Time latency = util::Time::zero())
      : sim_(&sim),
        name_(std::move(name)),
        rate_(rate),
        latency_(latency),
        busy_(sim, 1),
        memoTime_(occupancy(memoSize_)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] util::DataRate rate() const noexcept { return rate_; }
  [[nodiscard]] util::Time latency() const noexcept { return latency_; }

  /// Time the wire is occupied by a `size`-byte transfer.
  [[nodiscard]] util::Time occupancy(util::Bytes size) const noexcept {
    return latency_ + rate_.transferTime(size);
  }

  /// Awaitable returned by transfer(). An uncontended transfer on a link
  /// without a fault hook runs without a child coroutine: it takes the
  /// permit (tryStartTransfer), keeps its completion event for the
  /// occupancy (no event at all when that is zero, as with delay(0)) and
  /// runs through it in place when it is next, then counts the bytes and
  /// releases the permit (finishTransfer) — the same kernel calls, in the
  /// same order, as transferBody(). Every other transfer awaits
  /// transferBody() as a child.
  class [[nodiscard]] Transfer {
   public:
    Transfer(SimplexLink& link, util::Bytes size) noexcept
        : link_(&link), size_(size) {}

    bool await_ready() {
      if (link_->tryStartTransfer(size_, occupancy_)) {
        return occupancy_ == util::Time::zero();
      }
      body_ = link_->transferBody(size_);
      return false;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      if (body_.valid()) return body_.await_suspend(parent);
      Simulator& sim = *link_->sim_;
      return sim.runThroughAt(sim.now() + occupancy_, parent)
                 ? parent
                 : std::noop_coroutine();
    }
    void await_resume() {
      if (body_.valid()) {
        body_.await_resume();
        return;
      }
      link_->finishTransfer(size_);
    }

   private:
    SimplexLink* link_;
    util::Bytes size_;
    util::Time occupancy_;
    Process body_{};  ///< set when the transfer takes the coroutine path
  };

  /// Starts an uncontended transfer without a coroutine: when the link has
  /// no fault hook and is free, takes it, sets `occupancy` and returns
  /// true. The caller then owns the completion, `occupancy` later, and
  /// calls finishTransfer(size) at it. Otherwise takes nothing and returns
  /// false; the caller must co_await transfer(size). (A bool and an out
  /// parameter, not an optional: GCC builds an optional<Time> on the stack
  /// and reloads it with one 16-byte load, a store-forwarding stall on
  /// every chunk.)
  [[nodiscard]] bool tryStartTransfer(util::Bytes size,
                                      util::Time& occupancy) noexcept {
    if (faultHook_ || !busy_.tryAcquire()) return false;
    occupancy = memoOccupancy(size);
    return true;
  }

  /// Completes a transfer tryStartTransfer() started: counts its bytes and
  /// releases the link. Returns true when a queued transfer took it over,
  /// its wake now pending at now().
  bool finishTransfer(util::Bytes size) {
    totalBytes_ += size;
    ++totalTransfers_;
    const bool handedOver = busy_.waiterCount() > 0;
    busy_.release();
    return handedOver;
  }

  /// Waits for the link, holds it for `occupancy(size)`; co_await it.
  [[nodiscard]] Transfer transfer(util::Bytes size) noexcept {
    return Transfer{*this, size};
  }

  /// Installs (or clears, with nullptr) the per-transfer fault hook.
  void setFaultHook(TransferFaultHook hook) { faultHook_ = std::move(hook); }

  [[nodiscard]] util::Bytes totalBytes() const noexcept { return totalBytes_; }
  [[nodiscard]] std::uint64_t totalTransfers() const noexcept {
    return totalTransfers_;
  }
  /// Transfers that took the coroutine path: queued behind another
  /// transfer, or on a link with a fault hook. Only these can interleave
  /// with other traffic; the rest cost exactly occupancy(size).
  [[nodiscard]] std::uint64_t contendedTransfers() const noexcept {
    return contendedTransfers_;
  }

 private:
  /// occupancy(size) through a one-entry memo. Rate and latency are fixed,
  /// so a chunked stream (the ICAP pipeline's full 2 KiB chunks) pays the
  /// double division and rounding once, not per chunk. Not const: the
  /// const occupancy() stays free of hidden state.
  util::Time memoOccupancy(util::Bytes size) noexcept {
    if (size != memoSize_) {
      memoSize_ = size;
      memoTime_ = occupancy(size);
    }
    return memoTime_;
  }

  /// Contended or fault-hooked transfers: queue for the link, apply the
  /// hook's stall/abort, hold the link for the occupancy.
  [[nodiscard]] Process transferBody(util::Bytes size) {
    ++contendedTransfers_;
    co_await busy_.acquire();
    ScopedPermit permit{busy_};
    if (faultHook_) {
      if (auto fault = faultHook_(*this, size)) {
        if (fault->stall > util::Time::zero()) {
          co_await sim_->delay(fault->stall);
        }
        if (fault->abort) {
          co_await sim_->delay(occupancy(fault->completedBytes));
          totalBytes_ += fault->completedBytes;
          std::rethrow_exception(fault->abort);
        }
      }
    }
    co_await sim_->delay(memoOccupancy(size));
    totalBytes_ += size;
    ++totalTransfers_;
  }

  Simulator* sim_;
  std::string name_;
  util::DataRate rate_;
  util::Time latency_;
  Semaphore busy_;
  TransferFaultHook faultHook_{};
  util::Bytes totalBytes_{};
  std::uint64_t totalTransfers_ = 0;
  std::uint64_t contendedTransfers_ = 0;
  util::Bytes memoSize_{};  ///< memoOccupancy(): the last size ...
  util::Time memoTime_;     ///< ... and its occupancy
};

}  // namespace prtr::sim
