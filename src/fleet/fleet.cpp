#include "fleet/fleet.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "exec/pool.hpp"
#include "obs/host.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "trace/recorder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr::fleet {

const char* toString(ArrivalProcess arrival) noexcept {
  switch (arrival) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kFixedRate: return "fixed-rate";
    case ArrivalProcess::kTrace: return "trace";
  }
  return "?";
}

const char* toString(RoutingPolicy routing) noexcept {
  switch (routing) {
    case RoutingPolicy::kLeastLoaded: return "least-loaded";
    case RoutingPolicy::kPowerOfTwoChoices: return "p2c";
    case RoutingPolicy::kRoundRobin: return "round-robin";
  }
  return "?";
}

namespace {

/// The time of an empty pending-set source.
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// When a pending event fires. Every event a cell schedules takes the next
/// seq, so (timePs, seq) is a total order and equal times fire in schedule
/// order.
struct Due {
  std::int64_t timePs = kNever;
  std::uint64_t seq = 0;
};

/// Strict (timePs, seq) order: `a` is due before `b`.
template <typename A, typename B>
bool dueBefore(const A& a, const B& b) noexcept {
  return a.timePs != b.timePs ? a.timePs < b.timePs : a.seq < b.seq;
}

/// A retry backoff or hedge delay naming a request slot.
struct Timer {
  bool hedge = false;  ///< a hedge delay, else a retry backoff
  std::uint32_t req = 0;
};

/// One request, held in a recyclable slot of its cell (see Cell::slots).
struct Request {
  std::int64_t arrivalPs = 0;
  std::uint64_t bytes = 0;
  std::uint32_t task = 0;
  std::uint32_t user = 0;  ///< owning simulated user (rate-limit bucket)
  /// Per-cell arrival index; keys the request's trace. While the slot is
  /// free it links the cell's free list instead.
  std::uint32_t ordinal = 0;
  std::int32_t primaryBlade = -1;
  std::uint8_t attempts = 0;  ///< dispatches so far (fresh + retries)
  bool done = false;
  bool failed = false;
  bool hedged = false;
  std::uint8_t inFlight = 0;  ///< copies queued or in service (at most 2)
  std::uint8_t pendingTimers = 0;  ///< retry/hedge events naming the slot
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

struct Job {
  std::uint32_t req = 0;  ///< request slot
  std::int64_t enqueuePs = 0;
  std::uint8_t attempt = 0;  ///< the request's attempt number at dispatch
  bool probe = false;  ///< dispatched while the blade was half-open
  bool hedge = false;  ///< the hedged copy, not the primary dispatch
};

/// Degradation multiplier on the calibrated persona-reload cost, indexed
/// by RecoveryRung: heavier rungs re-verify and rewrite more frames
/// (difference retry, module partial, occupancy-1.0 PRR rewrite, full
/// device), mirroring the stream-size ratios of the PR-4 recovery ladder.
constexpr double kRungConfigFactor[config::kRecoveryRungCount] = {
    1.0, 1.25, 1.6, 2.5, 8.0};

/// An XD1 chassis holds at most six blades.
constexpr std::size_t kMaxBlades = 6;

struct Blade {
  sim::detail::SmallFifo<Job> queue;
  Job current{};
  bool busy = false;
  bool currentFails = false;  ///< decided at service start
  std::int32_t resident = -1;
  std::size_t rung = 0;  ///< index into config::RecoveryRung
  std::uint32_t consecFail = 0;
  std::uint32_t consecOk = 0;
  BreakerState state = BreakerState::kClosed;
  std::int64_t reopenAtPs = 0;
  std::uint32_t probesInFlight = 0;
  std::uint32_t probeOk = 0;
  fault::Plan plan{};
  /// plan.active(), set once per run: a fault-free blade (every steady
  /// fleet's) skips both fault draws and the load-rate sum per service.
  bool faulty = false;
  util::Rng rng{0};
  std::uint64_t loadTick = 0;   ///< kFixedPeriod schedule over persona loads
  std::uint64_t stallTick = 0;  ///< kFixedPeriod schedule over transfers
  std::int64_t busyPs = 0;
};

struct CellResult {
  obs::MetricsSnapshot metrics;
  std::vector<double> utilization;
  std::int64_t endPs = 0;
  std::size_t requestSlots = 0;  ///< slot high-water mark
  trace::CellTrace trace{};   ///< kept request traces (tracing enabled)
  obs::TimeSeries series{};   ///< windowed series (tracing or SLO enabled)
};

/// One fault draw: Poisson plans draw a Bernoulli from the blade's RNG;
/// kFixedPeriod plans fire deterministically every fixedPeriod-th
/// eligible event, with `rate` only gating eligibility.
bool drawFault(Blade& blade, double rate, std::uint64_t& tick) {
  if (rate <= 0.0) return false;
  if (blade.plan.arrival == fault::Arrival::kFixedPeriod) {
    return ++tick % std::max<std::uint64_t>(1, blade.plan.fixedPeriod) == 0;
  }
  return blade.rng.chance(std::min(rate, 0.95));
}

/// The whole state of one cell's simulation.
struct Cell {
  const FleetOptions& options;
  const BladeProfile& profile;
  std::vector<Blade> blades;
  // Request slots. A slot returns to the free list once its request is
  // terminal, no copy of it is queued or in service, and no retry or hedge
  // event still names it, so memory follows the in-flight population, not
  // the request count. Jobs and timers name slots; traces name ordinals.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<Request> slots;
  std::uint32_t freeHead = kNoSlot;  ///< free list, linked through ordinal
  // The pending set. Source 0 is the next arrival and source 1 + b is
  // blade b's completion (a blade serves one job at a time); an empty
  // source is due at kNever. Only retry and hedge timers, of which any
  // number may pend, go through a heap. All three take `seq` from one
  // counter, so dispatch follows the one total (timePs, seq) order.
  std::array<Due, 1 + kMaxBlades> due;
  sim::EventHeap<Timer> timers;
  util::Rng rng;
  std::uint64_t seq = 0;
  std::uint64_t quota = 0;      ///< fresh requests this cell generates
  std::uint64_t generated = 0;
  std::uint64_t traceIdx = 0;
  std::uint64_t rrCounter = 0;
  double retryTokens = 0.0;
  double hedgeTokens = 0.0;
  std::int64_t meanServicePs = 1;
  std::int64_t deadlineWaitPs = 0;
  std::int64_t interarrivalPs = 1;
  std::int64_t nowPs = 0;
  /// Cell-local latency of successful requests; only hedge delays and the
  /// tracer's slow-tail threshold read it, so it is kept only for them.
  obs::HistogramSummary localLatency;
  bool trackLatency = false;
  /// Blades whose breaker is not Closed. While none is, every blade is
  /// eligible and routing needs no breaker refresh and no list.
  std::uint32_t unclosedBreakers = 0;
  std::vector<std::uint32_t> eligible;  ///< routing scratch

  // Per-event fleet.* series. Each event adds one to a counter, so a
  // counter is non-zero exactly when its event happened; run() names each
  // series once, writing a counter iff it is non-zero and a histogram iff
  // it holds a sample.
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shedBreaker = 0;
  std::uint64_t shedDeadline = 0;
  std::uint64_t shedQueue = 0;
  std::uint64_t shedRateLimit = 0;
  std::uint64_t completedOk = 0;
  std::uint64_t completedFailed = 0;
  std::uint64_t retries = 0;
  std::uint64_t retriesDenied = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedgeWins = 0;
  std::uint64_t hedgeCancelled = 0;
  std::uint64_t breakerOpens = 0;
  std::uint64_t breakerCloses = 0;
  std::uint64_t breakerHalfOpens = 0;
  std::uint64_t configLoads = 0;
  std::uint64_t configFaults = 0;
  std::uint64_t linkStalls = 0;
  std::uint64_t escalations = 0;
  std::uint64_t deescalations = 0;
  obs::HistogramSummary latencyHist;
  obs::HistogramSummary queueWaitHist;
  obs::HistogramSummary serviceHist;
  obs::HistogramSummary attemptsHist;

  // Observers. The recorder and series are driven from the same event
  // callbacks the counters come from; neither consumes an RNG draw, so
  // the simulated bytes are identical with them on or off.
  std::unique_ptr<trace::CellRecorder> recorder;
  trace::CellRecorder* rec = nullptr;  ///< nullptr when tracing is off
  bool recordSeries = false;
  obs::TimeSeries series;
  std::int64_t sloTargetPs = 0;
  // Per-user token buckets (rate limiter); refilled lazily in sim time.
  std::vector<double> rlTokens;
  std::vector<std::int64_t> rlLastPs;

  Cell(const FleetOptions& opt, const BladeProfile& prof, std::size_t cellIdx)
      : options(opt),
        profile(prof),
        rng(opt.seed ^ (0x9e3779b97f4a7c15ULL * (cellIdx + 1))) {}

  void scheduleTimer(std::int64_t atPs, bool hedge, std::uint32_t req) {
    ++slots[req].pendingTimers;
    timers.push({atPs, seq++, Timer{hedge, req}});
  }

  std::size_t taskCount() const { return profile.tasks.size(); }

  std::uint32_t acquireSlot() {
    if (freeHead == kNoSlot) {
      slots.emplace_back();
      return static_cast<std::uint32_t>(slots.size() - 1);
    }
    const std::uint32_t slot = freeHead;
    freeHead = slots[slot].ordinal;
    return slot;
  }

  /// Frees `slot` if nothing can reach its request any more. Called once
  /// per event that may have made it idle, after the event's last access.
  void releaseIfIdle(std::uint32_t slot) {
    Request& r = slots[slot];
    if ((r.done || r.failed) && r.inFlight == 0 && r.pendingTimers == 0) {
      r.ordinal = freeHead;
      freeHead = slot;
    }
  }

  /// Lazy time-based breaker transition: Open cools down into HalfOpen
  /// the first time routing looks at the blade past its reopen time.
  void refreshBreaker(std::uint32_t bladeIdx) {
    Blade& blade = blades[bladeIdx];
    if (blade.state == BreakerState::kOpen && nowPs >= blade.reopenAtPs) {
      blade.state = BreakerState::kHalfOpen;
      blade.probesInFlight = 0;
      blade.probeOk = 0;
      ++breakerHalfOpens;
      if (rec) {
        rec->bladeMark(bladeIdx, trace::BladeMarkKind::kBreakerHalfOpen,
                       nowPs);
      }
    }
  }

  bool bladeEligible(std::uint32_t bladeIdx) {
    if (!options.breaker.enabled) return true;
    refreshBreaker(bladeIdx);
    const Blade& blade = blades[bladeIdx];
    if (blade.state == BreakerState::kClosed) return true;
    return blade.state == BreakerState::kHalfOpen &&
           blade.probesInFlight < options.breaker.halfOpenProbes;
  }

  std::size_t depth(const Blade& blade) const {
    return blade.queue.size() + (blade.busy ? 1u : 0u);
  }

  /// Routes among currently eligible blades, optionally excluding one
  /// (retries avoid the blade that just failed; hedges avoid the
  /// primary). Returns -1 when no blade is eligible.
  std::int32_t route(std::int32_t exclude) {
    if (unclosedBreakers == 0 && exclude < 0) {
      return pick(blades.size(), [](std::size_t i) { return i; });
    }
    eligible.clear();
    for (std::uint32_t b = 0; b < blades.size(); ++b) {
      if (static_cast<std::int32_t>(b) == exclude) continue;
      if (bladeEligible(b)) eligible.push_back(b);
    }
    if (eligible.empty() && exclude >= 0 &&
        bladeEligible(static_cast<std::uint32_t>(exclude))) {
      eligible.push_back(static_cast<std::uint32_t>(exclude));
    }
    if (eligible.empty()) return -1;
    return pick(eligible.size(), [this](std::size_t i) { return eligible[i]; });
  }

  /// Applies the routing policy to the `n` candidates `candidate(0..n-1)`
  /// (ascending blade indices).
  template <typename Candidate>
  std::int32_t pick(std::size_t n, Candidate candidate) {
    switch (options.routing) {
      case RoutingPolicy::kRoundRobin:
        return static_cast<std::int32_t>(candidate(rrCounter++ % n));
      case RoutingPolicy::kLeastLoaded: {
        std::size_t best = candidate(0);
        for (std::size_t i = 1; i < n; ++i) {
          const std::size_t b = candidate(i);
          if (depth(blades[b]) < depth(blades[best])) best = b;
        }
        return static_cast<std::int32_t>(best);
      }
      case RoutingPolicy::kPowerOfTwoChoices: {
        const std::size_t a = candidate(rng.below(n));
        const std::size_t b = candidate(rng.below(n));
        const std::size_t lo = std::min(a, b);
        const std::size_t hi = std::max(a, b);
        return static_cast<std::int32_t>(
            depth(blades[hi]) < depth(blades[lo]) ? hi : lo);
      }
    }
    return -1;
  }

  void startService(std::uint32_t bladeIdx, Job job) {
    Blade& blade = blades[bladeIdx];
    Request& r = slots[job.req];
    const TaskProfile& t = profile.tasks[r.task];
    queueWaitHist.observe(nowPs - job.enqueuePs);

    std::int64_t stallPs = 0;
    std::int64_t configPs = 0;
    std::int64_t execPs = 0;
    bool willFail = false;
    if (blade.faulty &&
        drawFault(blade, blade.plan.linkStallRate, blade.stallTick)) {
      stallPs = blade.plan.stallDuration.ps();
      ++linkStalls;
    }
    // A blade degraded to the full-PRR rung or beyond has lost confidence
    // in its resident persona: it reloads on every dispatch.
    const bool needsConfig =
        blade.resident != static_cast<std::int32_t>(r.task) ||
        blade.rung >= static_cast<std::size_t>(
                          config::RecoveryRung::kFullPrrReload);
    if (needsConfig) {
      ++configLoads;
      configPs = static_cast<std::int64_t>(
          static_cast<double>(t.configPs) * kRungConfigFactor[blade.rung]);
      const double loadRate =
          blade.faulty
              ? blade.plan.transferTimeoutRate + blade.plan.icapAbortRate +
                    blade.plan.apiRejectRate +
                    blade.plan.wordFlipRate * static_cast<double>(t.configWords)
              : 0.0;
      if (drawFault(blade, loadRate, blade.loadTick)) {
        // The load aborts: the config attempt is wasted and the request
        // never reaches the fabric.
        willFail = true;
        ++configFaults;
      }
    }
    if (!willFail) execPs = t.execPs(r.bytes);
    const std::int64_t servicePs =
        std::max<std::int64_t>(1, stallPs + configPs + execPs);

    blade.busy = true;
    blade.current = job;
    blade.currentFails = willFail;
    blade.busyPs += servicePs;
    serviceHist.observe(servicePs);
    due[1 + bladeIdx] = {nowPs + servicePs, seq++};
    if (rec) {
      rec->onServiceStart(r.ordinal, job.attempt, bladeIdx, nowPs, stallPs,
                          configPs, execPs, nowPs + servicePs);
    }
  }

  void dispatch(std::uint32_t bladeIdx, std::uint32_t reqIdx, bool hedge) {
    Blade& blade = blades[bladeIdx];
    Request& r = slots[reqIdx];
    Job job;
    job.req = reqIdx;
    job.enqueuePs = nowPs;
    job.hedge = hedge;
    if (options.breaker.enabled && blade.state == BreakerState::kHalfOpen) {
      job.probe = true;
      ++blade.probesInFlight;
    }
    ++r.attempts;
    ++r.inFlight;
    job.attempt = r.attempts;
    if (!hedge) r.primaryBlade = static_cast<std::int32_t>(bladeIdx);
    if (rec) rec->onDispatch(r.ordinal, job.attempt, hedge, bladeIdx, nowPs);
    if (blade.busy) {
      blade.queue.push(job);
    } else {
      startService(bladeIdx, job);
    }
  }

  /// Sheds one fresh request: counter, terminal trace, series window.
  void shedFresh(std::uint32_t reqIdx, std::uint64_t& counter,
                 trace::Outcome outcome) {
    ++counter;
    Request& r = slots[reqIdx];
    r.failed = true;
    if (recordSeries) {
      obs::TimeSeries::Window& w = series.at(nowPs);
      ++w.shed;
      ++w.bad;
    }
    if (rec) rec->onShed(r.ordinal, outcome, nowPs);
  }

  /// Admission -> routing -> dispatch for one fresh arrival. Sheds (and
  /// returns) when no breaker admits traffic, the queue is over depth,
  /// or the estimated wait blows the SLO-derived deadline.
  void admitFresh(std::uint32_t reqIdx) {
    Request& r = slots[reqIdx];
    ++offered;
    if (rec) rec->onArrival(r.ordinal, nowPs);
    // Per-user token bucket ahead of routing: a rate-limited user's
    // request never consumes a routing decision or queue estimate.
    if (options.rateLimit.enabled) {
      double& tokens = rlTokens[r.user];
      std::int64_t& lastPs = rlLastPs[r.user];
      tokens = std::min(options.rateLimit.burst,
                        tokens + options.rateLimit.ratePerSecond *
                                     static_cast<double>(nowPs - lastPs) *
                                     1e-12);
      lastPs = nowPs;
      if (tokens < 1.0) {
        shedFresh(reqIdx, shedRateLimit, trace::Outcome::kShedRateLimit);
        return;
      }
      tokens -= 1.0;
    }
    const std::int32_t choice = route(/*exclude=*/-1);
    if (choice < 0) {
      shedFresh(reqIdx, shedBreaker, trace::Outcome::kShedBreaker);
      return;
    }
    const auto bladeIdx = static_cast<std::uint32_t>(choice);
    const std::size_t d = depth(blades[bladeIdx]);
    if (d >= options.admission.maxQueueDepth) {
      shedFresh(reqIdx, shedQueue, trace::Outcome::kShedQueue);
      return;
    }
    if (static_cast<std::int64_t>(d) * meanServicePs > deadlineWaitPs) {
      shedFresh(reqIdx, shedDeadline, trace::Outcome::kShedDeadline);
      return;
    }
    ++admitted;
    retryTokens = std::min(options.retry.burstTokens,
                           retryTokens + options.retry.budgetFraction);
    if (options.hedge.enabled) {
      hedgeTokens = std::min(options.hedge.burstTokens,
                             hedgeTokens + options.hedge.budgetFraction);
    }
    dispatch(bladeIdx, reqIdx, /*hedge=*/false);
    if (options.hedge.enabled &&
        localLatency.count >= options.hedge.minSamples) {
      const auto delayPs = static_cast<std::int64_t>(
          localLatency.quantile(options.hedge.quantile));
      scheduleTimer(nowPs + std::max<std::int64_t>(1, delayPs),
                    /*hedge=*/true, reqIdx);
    }
  }

  void generateArrival() {
    const std::uint32_t slot = acquireSlot();
    Request& r = slots[slot];
    r = Request{};
    r.arrivalPs = nowPs;
    r.ordinal = static_cast<std::uint32_t>(generated);
    if (options.arrival == ArrivalProcess::kTrace) {
      const TraceArrival& ta =
          options.trace[traceIdx++ % options.trace.size()];
      if (ta.task >= 0) {
        r.task = static_cast<std::uint32_t>(ta.task) %
                 static_cast<std::uint32_t>(taskCount());
        // No RNG draw for an explicit task: attribute it to the user the
        // affinity mapping would prefer it.
        r.user = static_cast<std::uint32_t>(r.task % options.users);
      } else {
        r.task = drawTask(r.user);
      }
      r.bytes = ta.bytes > 0 ? ta.bytes : drawBytes();
    } else {
      r.task = drawTask(r.user);
      r.bytes = drawBytes();
    }
    admitFresh(slot);
    releaseIfIdle(slot);  // shed at admission
    ++generated;
    if (generated < quota) scheduleNextArrival();
  }

  /// Draws the owning user and the task; the draw order (user, affinity,
  /// optional uniform task) is part of the determinism contract.
  std::uint32_t drawTask(std::uint32_t& user) {
    const std::uint64_t drawn = rng.below(options.users);
    user = static_cast<std::uint32_t>(drawn);
    if (rng.chance(options.taskAffinity)) {
      return static_cast<std::uint32_t>(drawn % taskCount());
    }
    return static_cast<std::uint32_t>(rng.below(taskCount()));
  }

  std::uint64_t drawBytes() {
    const double base = static_cast<double>(options.payloadBytes.count());
    const double lo = base * (1.0 - options.payloadSpread);
    const double hi = base * (1.0 + options.payloadSpread);
    return static_cast<std::uint64_t>(
        std::max(1.0, options.payloadSpread > 0.0 ? rng.uniform(lo, hi)
                                                  : base));
  }

  void scheduleNextArrival() {
    std::int64_t gapPs = interarrivalPs;
    switch (options.arrival) {
      case ArrivalProcess::kPoisson:
        gapPs = static_cast<std::int64_t>(
            rng.exponential(static_cast<double>(interarrivalPs)));
        break;
      case ArrivalProcess::kFixedRate:
        break;
      case ArrivalProcess::kTrace:
        gapPs = options.trace[traceIdx % options.trace.size()].deltaPs;
        break;
    }
    due[0] = {nowPs + std::max<std::int64_t>(1, gapPs), seq++};
  }

  /// A request reached a terminal failure (attempts exhausted or retry
  /// budget empty) with no copy left in flight.
  void finishFailed(std::uint32_t reqIdx) {
    Request& r = slots[reqIdx];
    r.failed = true;
    ++completedFailed;
    attemptsHist.observe(r.attempts);
    if (recordSeries) {
      obs::TimeSeries::Window& w = series.at(nowPs);
      ++w.failed;
      ++w.bad;
    }
    if (rec) rec->onFailed(r.ordinal, nowPs);
  }

  void onCompletion(std::uint32_t bladeIdx) {
    Blade& blade = blades[bladeIdx];
    const Job job = blade.current;
    const bool fail = blade.currentFails;
    blade.busy = false;
    Request& r = slots[job.req];
    --r.inFlight;

    // Blade health: the recovery ladder slides on failure streaks and
    // climbs back on success streaks.
    if (fail) {
      blade.consecOk = 0;
      ++blade.consecFail;
      if (blade.consecFail % options.escalateAfter == 0 &&
          blade.rung + 1 < config::kRecoveryRungCount) {
        ++blade.rung;
        ++escalations;
        if (rec) {
          rec->bladeMark(bladeIdx, trace::BladeMarkKind::kLadderEscalate,
                         nowPs);
        }
      }
    } else {
      blade.consecFail = 0;
      ++blade.consecOk;
      blade.resident = static_cast<std::int32_t>(r.task);
      if (blade.consecOk >= options.recoverAfter && blade.rung > 0) {
        --blade.rung;
        blade.consecOk = 0;
        ++deescalations;
        if (rec) {
          rec->bladeMark(bladeIdx, trace::BladeMarkKind::kLadderDeescalate,
                         nowPs);
        }
      }
    }

    // Breaker transitions. Probe jobs settle the half-open state; closed
    // blades open on failure streaks or a degraded-enough ladder rung.
    if (options.breaker.enabled) {
      if (job.probe && blade.state == BreakerState::kHalfOpen) {
        if (blade.probesInFlight > 0) --blade.probesInFlight;
        if (fail) {
          blade.state = BreakerState::kOpen;
          blade.reopenAtPs = nowPs + options.breaker.openDuration.ps();
          ++breakerOpens;
          if (recordSeries) ++series.at(nowPs).breakerOpens;
          if (rec) {
            rec->bladeMark(bladeIdx, trace::BladeMarkKind::kBreakerOpen,
                           nowPs);
          }
        } else {
          ++blade.probeOk;
          if (blade.probeOk >= options.breaker.probeSuccesses) {
            blade.state = BreakerState::kClosed;
            --unclosedBreakers;
            blade.consecFail = 0;
            ++breakerCloses;
            if (rec) {
              rec->bladeMark(bladeIdx, trace::BladeMarkKind::kBreakerClose,
                             nowPs);
            }
          }
        }
      } else if (blade.state == BreakerState::kClosed && fail &&
                 (blade.consecFail >= options.breaker.consecutiveFailures ||
                  blade.rung >= static_cast<std::size_t>(
                                    options.breaker.openRung))) {
        blade.state = BreakerState::kOpen;
        ++unclosedBreakers;
        blade.reopenAtPs = nowPs + options.breaker.openDuration.ps();
        ++breakerOpens;
        if (recordSeries) ++series.at(nowPs).breakerOpens;
        if (rec) {
          rec->bladeMark(bladeIdx, trace::BladeMarkKind::kBreakerOpen, nowPs);
        }
      }
    }

    // Request outcome. A copy finishing after the request is already done
    // is the losing side of a hedge; it only updated blade health.
    if (!r.done) {
      if (!fail) {
        r.done = true;
        ++completedOk;
        const std::int64_t latencyPs = nowPs - r.arrivalPs;
        latencyHist.observe(latencyPs);
        // The slow-tail threshold is the quantile *before* this sample:
        // a request cannot make itself look fast by shifting the bar.
        std::int64_t slowThresholdPs = -1;
        if (rec && localLatency.count >=
                       static_cast<std::uint64_t>(
                           options.tracing.slowMinSamples)) {
          slowThresholdPs = static_cast<std::int64_t>(
              localLatency.quantile(options.tracing.slowQuantile));
        }
        if (trackLatency) localLatency.observe(latencyPs);
        attemptsHist.observe(r.attempts);
        if (job.hedge) ++hedgeWins;
        if (recordSeries) {
          obs::TimeSeries::Window& w = series.at(nowPs);
          ++w.completed;
          w.latency.observe(latencyPs);
          if (latencyPs <= sloTargetPs) {
            ++w.good;
          } else {
            ++w.bad;
          }
        }
        if (rec) {
          rec->onDone(r.ordinal, job.hedge, nowPs, slowThresholdPs,
                      sloTargetPs);
        }
      } else if (r.inFlight == 0) {
        if (r.attempts < options.retry.maxAttempts) {
          if (retryTokens >= 1.0) {
            retryTokens -= 1.0;
            ++retries;
            if (recordSeries) ++series.at(nowPs).retries;
            const double backoff =
                static_cast<double>(options.retry.backoffBase.ps()) *
                std::pow(options.retry.backoffFactor, r.attempts - 1);
            scheduleTimer(nowPs + std::max<std::int64_t>(
                                      1, static_cast<std::int64_t>(backoff)),
                          /*hedge=*/false, job.req);
          } else {
            ++retriesDenied;
            if (rec) rec->onRetryDenied(r.ordinal, nowPs);
            finishFailed(job.req);
          }
        } else {
          finishFailed(job.req);
        }
      }
    }
    releaseIfIdle(job.req);

    pumpQueue(bladeIdx);
  }

  /// Starts the next queued job, discarding copies whose request already
  /// finished (hedge losers cancelled at dequeue — they cost nothing).
  void pumpQueue(std::uint32_t bladeIdx) {
    Blade& blade = blades[bladeIdx];
    while (!blade.busy && !blade.queue.empty()) {
      const Job job = blade.queue.pop();
      Request& r = slots[job.req];
      if (r.done) {
        --r.inFlight;
        ++hedgeCancelled;
        if (rec) rec->onCancelled(r.ordinal, job.attempt, nowPs);
        if (job.probe && blade.state == BreakerState::kHalfOpen &&
            blade.probesInFlight > 0) {
          --blade.probesInFlight;
        }
        releaseIfIdle(job.req);
        continue;
      }
      startService(bladeIdx, job);
    }
  }

  void onRetry(std::uint32_t reqIdx) {
    Request& r = slots[reqIdx];
    --r.pendingTimers;
    if (r.done || r.failed) return;
    const std::int32_t choice = route(r.primaryBlade);
    if (choice < 0) {
      finishFailed(reqIdx);
      return;
    }
    dispatch(static_cast<std::uint32_t>(choice), reqIdx, /*hedge=*/false);
  }

  void onHedge(std::uint32_t reqIdx) {
    Request& r = slots[reqIdx];
    --r.pendingTimers;
    // Hedge only a request whose primary is still grinding: not done, not
    // already hedged, not sitting between retries.
    if (r.done || r.failed || r.hedged || r.inFlight == 0) return;
    if (hedgeTokens < 1.0) return;
    const std::int32_t choice = route(r.primaryBlade);
    if (choice < 0 ||
        choice == r.primaryBlade) {
      return;
    }
    hedgeTokens -= 1.0;
    r.hedged = true;
    ++hedges;
    if (rec) rec->onHedgeLaunch(r.ordinal, nowPs);
    dispatch(static_cast<std::uint32_t>(choice), reqIdx, /*hedge=*/true);
  }

  /// Writes the per-event series into `out`.
  void writePerEventSeries(obs::MetricsSnapshot& out) const {
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"fleet.offered", offered},
        {"fleet.admitted", admitted},
        {"fleet.shed.breaker", shedBreaker},
        {"fleet.shed.deadline", shedDeadline},
        {"fleet.shed.queue", shedQueue},
        {"fleet.shed.ratelimit", shedRateLimit},
        {"fleet.completed.ok", completedOk},
        {"fleet.completed.failed", completedFailed},
        {"fleet.retries", retries},
        {"fleet.retries_denied", retriesDenied},
        {"fleet.hedges", hedges},
        {"fleet.hedge_wins", hedgeWins},
        {"fleet.hedge_cancelled", hedgeCancelled},
        {"fleet.breaker.opens", breakerOpens},
        {"fleet.breaker.closes", breakerCloses},
        {"fleet.breaker.half_opens", breakerHalfOpens},
        {"fleet.config.loads", configLoads},
        {"fleet.config.faults", configFaults},
        {"fleet.link.stalls", linkStalls},
        {"fleet.blade.escalations", escalations},
        {"fleet.blade.deescalations", deescalations},
    };
    for (const auto& [name, value] : counters) {
      if (value != 0) out.counters.emplace(name, value);
    }
    const std::pair<const char*, const obs::HistogramSummary*> histograms[] = {
        {"fleet.latency_ps", &latencyHist},
        {"fleet.queue_wait_ps", &queueWaitHist},
        {"fleet.service_ps", &serviceHist},
        {"fleet.attempts", &attemptsHist},
    };
    for (const auto& [name, summary] : histograms) {
      if (summary->count > 0) out.histograms.emplace(name, *summary);
    }
  }

  CellResult run(std::size_t cellIdx) {
    if (options.tracing.enabled) {
      recorder = std::make_unique<trace::CellRecorder>(options.tracing,
                                                       options.seed, cellIdx);
      rec = recorder.get();
    }
    recordSeries = options.slo.enabled || rec != nullptr;
    trackLatency = options.hedge.enabled || rec != nullptr;
    series = obs::TimeSeries{options.slo.windowPs > 0
                                 ? options.slo.windowPs
                                 : obs::SloSpec{}.windowPs};
    if (options.rateLimit.enabled) {
      rlTokens.assign(options.users, options.rateLimit.burst);
      rlLastPs.assign(options.users, 0);
    }
    const std::size_t totalBlades = options.cells * options.bladesPerCell;
    const std::uint64_t degradedCount = static_cast<std::uint64_t>(
        std::llround(options.degradedFraction *
                     static_cast<double>(totalBlades)));
    blades.resize(options.bladesPerCell);
    for (std::size_t b = 0; b < blades.size(); ++b) {
      const std::uint64_t g = cellIdx * options.bladesPerCell + b;
      // Bresenham spread: blade g is degraded iff the running quota
      // (g+1)*count/total advances past g*count/total — every cell gets
      // its proportional share of hostile blades.
      const bool degraded =
          ((g + 1) * degradedCount) / totalBlades >
          (g * degradedCount) / totalBlades;
      blades[b].plan =
          (degraded ? options.degradedFaults : options.faults).forNode(g);
      blades[b].faulty = blades[b].plan.active();
      blades[b].rng = util::Rng{blades[b].plan.seed};
    }

    const std::uint64_t base = options.requests / options.cells;
    const std::uint64_t rem = options.requests % options.cells;
    quota = base + (cellIdx < rem ? 1 : 0);

    // Arrival rate from the calibrated service model: a uniform task mix
    // misses the resident persona with probability (1 - 1/tasks), so the
    // expected service is exec plus that fraction of a persona reload.
    const double missFraction =
        taskCount() > 1
            ? 1.0 - 1.0 / static_cast<double>(taskCount())
            : 0.0;
    meanServicePs = std::max<std::int64_t>(
        1, profile.meanExecPs(options.payloadBytes.count()) +
               static_cast<std::int64_t>(
                   missFraction *
                   static_cast<double>(profile.meanConfigPs())));
    deadlineWaitPs = static_cast<std::int64_t>(
        options.admission.sloFactor * static_cast<double>(meanServicePs));
    sloTargetPs = options.slo.latencyTargetPs > 0 ? options.slo.latencyTargetPs
                                                  : deadlineWaitPs;
    interarrivalPs = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               static_cast<double>(meanServicePs) /
               (options.offeredLoad *
                static_cast<double>(options.bladesPerCell))));

    if (quota > 0) scheduleNextArrival();
    const std::size_t sources = 1 + blades.size();
    for (;;) {
      std::size_t next = 0;
      for (std::size_t s = 1; s < sources; ++s) {
        if (dueBefore(due[s], due[next])) next = s;
      }
      if (!timers.empty() && dueBefore(timers.top(), due[next])) {
        nowPs = timers.top().timePs;
        const Timer timer = timers.top().payload;
        timers.pop();
        if (timer.hedge) {
          onHedge(timer.req);
        } else {
          onRetry(timer.req);
        }
        releaseIfIdle(timer.req);
        continue;
      }
      if (due[next].timePs == kNever) break;
      nowPs = due[next].timePs;
      due[next].timePs = kNever;
      if (next == 0) {
        generateArrival();
      } else {
        onCompletion(static_cast<std::uint32_t>(next - 1));
      }
    }
    // Events fire in time order, so the last one ends the run.
    const std::int64_t endPs = nowPs;

    CellResult result;
    result.endPs = endPs;
    result.requestSlots = slots.size();
    result.utilization.reserve(blades.size());
    std::uint64_t busyPs = 0;
    for (const Blade& blade : blades) {
      busyPs += static_cast<std::uint64_t>(blade.busyPs);
      result.utilization.push_back(
          endPs > 0 ? static_cast<double>(blade.busyPs) /
                          static_cast<double>(endPs)
                    : 0.0);
    }
    writePerEventSeries(result.metrics);
    auto& counters = result.metrics.counters;
    counters["fleet.blade.busy_ps"] = busyPs;
    if (rec) {
      result.trace = rec->take();
      counters["fleet.trace.recorded"] = result.trace.recorded;
      counters["fleet.trace.tail_eligible"] = result.trace.tailEligible;
      counters["fleet.trace.kept_tail"] = result.trace.keptTail;
      counters["fleet.trace.kept_sampled"] = result.trace.keptSampled;
      counters["fleet.trace.dropped_cap"] = result.trace.droppedCap;
    }
    if (recordSeries) {
      counters["fleet.slo.good"] = series.totalGood();
      counters["fleet.slo.bad"] = series.totalBad();
      result.series = std::move(series);
    }
    return result;
  }
};

void validate(const FleetOptions& options) {
  util::require(options.cells >= 1, "runFleet: need at least one cell");
  util::require(options.bladesPerCell >= 1 &&
                    options.bladesPerCell <= kMaxBlades,
                "runFleet: an XD1 chassis holds 1..6 blades");
  util::require(options.requests >= 1, "runFleet: need at least one request");
  // A request's per-cell ordinal is 32 bits; with recycled slots nothing
  // else bounds the per-cell count.
  const std::uint64_t maxQuota = options.requests / options.cells +
                                 (options.requests % options.cells ? 1 : 0);
  util::require(maxQuota < (std::uint64_t{1} << 32),
                "runFleet: at most 2^32 - 1 requests per cell");
  util::require(options.offeredLoad > 0.0,
                "runFleet: offeredLoad must be positive");
  util::require(options.users >= 1, "runFleet: need at least one user");
  util::require(options.taskAffinity >= 0.0 && options.taskAffinity <= 1.0,
                "runFleet: taskAffinity must be within [0, 1]");
  util::require(options.payloadSpread >= 0.0 && options.payloadSpread < 1.0,
                "runFleet: payloadSpread must be within [0, 1)");
  util::require(options.payloadBytes.count() >= 2,
                "runFleet: payload too small");
  util::require(options.retry.maxAttempts >= 1,
                "runFleet: retry.maxAttempts must be at least 1");
  util::require(options.retry.budgetFraction >= 0.0,
                "runFleet: retry.budgetFraction must be non-negative");
  util::require(!options.hedge.enabled ||
                    (options.hedge.quantile > 0.0 &&
                     options.hedge.quantile < 1.0),
                "runFleet: hedge.quantile must be within (0, 1)");
  util::require(options.arrival != ArrivalProcess::kTrace ||
                    !options.trace.empty(),
                "runFleet: trace arrivals need a non-empty trace");
  util::require(
      options.degradedFraction >= 0.0 && options.degradedFraction <= 1.0,
      "runFleet: degradedFraction must be within [0, 1]");
  util::require(options.escalateAfter >= 1 && options.recoverAfter >= 1,
                "runFleet: escalate/recover streaks must be at least 1");
  util::require(!options.rateLimit.enabled ||
                    (options.rateLimit.ratePerSecond > 0.0 &&
                     options.rateLimit.burst > 0.0),
                "runFleet: rate limiter needs positive rate and burst");
  util::require(!options.tracing.enabled ||
                    (options.tracing.sampleRate >= 0.0 &&
                     options.tracing.sampleRate <= 1.0),
                "runFleet: tracing.sampleRate must be within [0, 1]");
  util::require(!options.tracing.enabled ||
                    (options.tracing.slowQuantile > 0.0 &&
                     options.tracing.slowQuantile < 1.0),
                "runFleet: tracing.slowQuantile must be within (0, 1)");
  util::require(!options.slo.enabled ||
                    (options.slo.objective > 0.0 &&
                     options.slo.objective < 1.0),
                "runFleet: slo.objective must be within (0, 1)");
  util::require(!options.slo.enabled || options.slo.windowPs > 0,
                "runFleet: slo.windowPs must be positive");
}

}  // namespace

std::string FleetReport::toString() const {
  std::ostringstream os;
  os << "fleet: " << offered << " offered, " << admitted << " admitted, "
     << shed << " shed (" << shedRate() << "), " << completed << " ok, "
     << failed << " failed\n";
  os << "  latency p50/p95/p99 " << latency.p50() << '/' << latency.p95()
     << '/' << latency.p99() << " ps over " << latency.count << " requests\n";
  os << "  retries " << retries << " (budget consumption "
     << retryBudgetConsumption() << ", denied " << retriesDenied
     << "), hedges " << hedges << " (won " << hedgeWins << ")\n";
  os << "  breaker opens " << breakerOpens << ", closes " << breakerCloses
     << "; utilization " << utilizationMin << '/' << utilizationMean << '/'
     << utilizationMax << " over makespan " << makespan.toString() << '\n';
  return os.str();
}

FleetReport runFleet(const tasks::FunctionRegistry& registry,
                     const BladeProfile& profile,
                     const FleetOptions& options) {
  validate(options);
  util::require(profile.tasks.size() == registry.size(),
                "runFleet: profile does not match the function registry");
  util::require(!profile.tasks.empty(), "runFleet: empty blade profile");
  const obs::HostTimer runTimer{"host.fleet.run_ns"};

  std::vector<std::size_t> cellIndices(options.cells);
  for (std::size_t c = 0; c < cellIndices.size(); ++c) cellIndices[c] = c;
  std::vector<CellResult> cells = exec::parallelMap(
      cellIndices,
      [&](const std::size_t cell) {
        Cell state{options, profile, cell};
        return state.run(cell);
      },
      exec::ForOptions{.threads = options.threads});

  // Cell snapshots (counters and histograms only) move-merge in cell order
  // after the barrier, so the fold is the same at any thread count.
  FleetReport report;
  for (CellResult& cell : cells) {
    report.makespan =
        std::max(report.makespan, util::Time::picoseconds(cell.endPs));
    report.requestSlots = std::max(report.requestSlots, cell.requestSlots);
    report.metrics.merge(std::move(cell.metrics));
  }

  const obs::MetricsSnapshot& m = report.metrics;
  report.offered = m.counterOr("fleet.offered");
  report.admitted = m.counterOr("fleet.admitted");
  report.shedRateLimited = m.counterOr("fleet.shed.ratelimit");
  report.shed = m.counterOr("fleet.shed.breaker") +
                m.counterOr("fleet.shed.deadline") +
                m.counterOr("fleet.shed.queue") + report.shedRateLimited;
  report.completed = m.counterOr("fleet.completed.ok");
  report.failed = m.counterOr("fleet.completed.failed");
  report.retries = m.counterOr("fleet.retries");
  report.retriesDenied = m.counterOr("fleet.retries_denied");
  report.hedges = m.counterOr("fleet.hedges");
  report.hedgeWins = m.counterOr("fleet.hedge_wins");
  report.breakerOpens = m.counterOr("fleet.breaker.opens");
  report.breakerCloses = m.counterOr("fleet.breaker.closes");
  report.tracesRecorded = m.counterOr("fleet.trace.recorded");
  report.tailEligible = m.counterOr("fleet.trace.tail_eligible");
  report.tracesKeptTail = m.counterOr("fleet.trace.kept_tail");
  report.tracesKeptSampled = m.counterOr("fleet.trace.kept_sampled");
  report.tracesDroppedCap = m.counterOr("fleet.trace.dropped_cap");
  report.tracesKept = report.tracesKeptTail + report.tracesKeptSampled;
  if (const auto it = m.histograms.find("fleet.latency_ps");
      it != m.histograms.end()) {
    report.latency = it->second;
  }

  double utilSum = 0.0;
  std::size_t utilCount = 0;
  for (const CellResult& cell : cells) {
    for (const double u : cell.utilization) {
      if (utilCount == 0) {
        report.utilizationMin = u;
        report.utilizationMax = u;
      } else {
        report.utilizationMin = std::min(report.utilizationMin, u);
        report.utilizationMax = std::max(report.utilizationMax, u);
      }
      utilSum += u;
      ++utilCount;
    }
  }
  report.utilizationMean =
      utilCount ? utilSum / static_cast<double>(utilCount) : 0.0;

  report.metrics.counters["fleet.cells"] = options.cells;
  report.metrics.counters["fleet.blades"] =
      options.cells * options.bladesPerCell;
  report.metrics.counters["fleet.makespan_ps"] =
      static_cast<std::uint64_t>(report.makespan.ps());
  report.metrics.gauges["fleet.utilization.min"] = report.utilizationMin;
  report.metrics.gauges["fleet.utilization.mean"] = report.utilizationMean;
  report.metrics.gauges["fleet.utilization.max"] = report.utilizationMax;
  report.metrics.gauges["fleet.retry.budget_consumption"] =
      report.retryBudgetConsumption();
  report.metrics.gauges["fleet.shed.rate"] = report.shedRate();

  // Fold the windowed series across cells (window widths match: every
  // cell derives the width from the same SLO spec), then gate on it.
  if (options.slo.enabled || options.tracing.enabled) {
    report.series = obs::TimeSeries{options.slo.windowPs > 0
                                        ? options.slo.windowPs
                                        : obs::SloSpec{}.windowPs};
    for (const CellResult& cell : cells) report.series.fold(cell.series);
  }
  if (options.tracing.enabled) {
    report.traces.cells.reserve(cells.size());
    for (CellResult& cell : cells) {
      report.traces.cells.push_back(std::move(cell.trace));
    }
  }
  if (options.slo.enabled) {
    report.slo = obs::evaluateSlo(report.series, options.slo);
    report.metrics.gauges["fleet.slo.good_fraction"] =
        report.slo.goodFraction;
    report.metrics.gauges["fleet.slo.fast_burn_max"] = report.slo.fastBurnMax;
    report.metrics.gauges["fleet.slo.slow_burn_max"] = report.slo.slowBurnMax;
    report.metrics.counters["fleet.slo.breach_windows"] =
        report.slo.breachWindows;
    report.metrics.counters["fleet.slo.pass"] = report.slo.pass ? 1 : 0;
  }
  if (options.hooks.trace && options.tracing.enabled) {
    trace::exportFleetTrace(report.traces, *options.hooks.trace);
    options.hooks.trace->addCounters("fleet/series",
                                     report.series.counterTracks("fleet"));
  }
  return report;
}

FleetReport runFleet(const tasks::FunctionRegistry& registry,
                     const FleetOptions& options) {
  const BladeProfile profile =
      calibrateBladeProfile(registry, options.calibration,
                            options.payloadBytes);
  return runFleet(registry, profile, options);
}

}  // namespace prtr::fleet
