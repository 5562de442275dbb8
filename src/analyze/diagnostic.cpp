#include "analyze/diagnostic.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace prtr::analyze {

const char* toString(Severity severity) noexcept {
  switch (severity) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* toString(Category category) noexcept {
  switch (category) {
    case Category::kFloorplan: return "floorplan";
    case Category::kBitstream: return "bitstream";
    case Category::kModel: return "model";
    case Category::kFault: return "fault";
    case Category::kFleet: return "fleet";
    case Category::kTracing: return "tracing";
    case Category::kSlo: return "slo";
    case Category::kRace: return "race";
    case Category::kTimeline: return "timeline";
    case Category::kRequest: return "request";
    case Category::kDeterminism: return "determinism";
  }
  return "?";
}

namespace {

constexpr std::array kCatalog{
    // Floorplan rules (fabric::Floorplan construction delegates to these).
    RuleInfo{"FP001", Category::kFloorplan, Severity::kError,
             "region listed as a PRR does not have the PRR role",
             "construct the region with RegionRole::kPrr or move it to the "
             "static partition"},
    RuleInfo{"FP002", Category::kFloorplan, Severity::kError,
             "PRR extends beyond the device column range",
             "shrink the PRR or target a larger device"},
    RuleInfo{"FP003", Category::kFloorplan, Severity::kError,
             "PRR claims a hard-core/clock (PPC or GCLK) column, which "
             "cannot be reconfigured",
             "move the PRR off the PPC/GCLK columns (device centre on the "
             "XC2VP50)"},
    RuleInfo{"FP004", Category::kFloorplan, Severity::kError,
             "two PRRs overlap in the column range",
             "make the PRR column ranges disjoint"},
    RuleInfo{"FP005", Category::kFloorplan, Severity::kError,
             "bus macro references a PRR that is not in the floorplan",
             "fix the bus macro's prrName or add the missing PRR"},
    RuleInfo{"FP006", Category::kFloorplan, Severity::kError,
             "bus macro is not pinned to its PRR's boundary column",
             "place the macro on the PRR's first or one-past-last column"},
    RuleInfo{"FP007", Category::kFloorplan, Severity::kWarning,
             "PRR has no bus macros, so no signals can cross its boundary",
             "add at least one bus macro pair per PRR boundary"},
    RuleInfo{"FP008", Category::kFloorplan, Severity::kWarning,
             "PRR bus macros are asymmetric (unbalanced directions)",
             "pair each left-to-right macro with a right-to-left macro"},
    RuleInfo{"FP009", Category::kFloorplan, Severity::kWarning,
             "degenerate static region: PRRs plus bus-macro overhead leave "
             "no usable static fabric",
             "shrink the PRRs; the static design needs LUTs for interface "
             "services and the PR controller"},
    RuleInfo{"FP010", Category::kFloorplan, Severity::kError,
             "duplicate PRR name makes bus-macro and module binding "
             "ambiguous",
             "give every PRR a unique name"},
    // Bitstream rules (bitstream::parse delegates to these).
    RuleInfo{"BS001", Category::kBitstream, Severity::kError,
             "stream is truncated (shorter than its header, payload, or "
             "CRC trailer requires)",
             "regenerate the stream; a partial transfer or file corruption "
             "dropped bytes"},
    RuleInfo{"BS002", Category::kBitstream, Severity::kError,
             "bad magic: not an XBF stream",
             "check that the file is an XBF bitstream, not a raw payload"},
    RuleInfo{"BS003", Category::kBitstream, Severity::kError,
             "unknown stream type discriminator",
             "regenerate the stream with a current Builder"},
    RuleInfo{"BS004", Category::kBitstream, Severity::kError,
             "stream targets a different device (device tag mismatch)",
             "rebuild the stream for this device or load it on its own "
             "device"},
    RuleInfo{"BS005", Category::kBitstream, Severity::kError,
             "per-frame payload size does not match the device geometry",
             "rebuild the stream against this device's frame encoding"},
    RuleInfo{"BS006", Category::kBitstream, Severity::kError,
             "CRC-32 trailer does not match the stream contents",
             "regenerate the stream; it was corrupted after generation"},
    RuleInfo{"BS007", Category::kBitstream, Severity::kError,
             "full stream frame count differs from the device's total "
             "frame count",
             "a full stream must write every frame exactly once"},
    RuleInfo{"BS008", Category::kBitstream, Severity::kError,
             "partial stream frame address is outside the device",
             "rebuild the partial stream for this device's frame range"},
    RuleInfo{"BS009", Category::kBitstream, Severity::kWarning,
             "partial stream frame addresses are not strictly increasing",
             "sort frame writes; configuration ports stream fastest on "
             "monotone addresses"},
    RuleInfo{"BS010", Category::kBitstream, Severity::kWarning,
             "stream size disagrees with the device frame math (extra or "
             "unaccounted bytes before the CRC)",
             "regenerate the stream; size = overhead + frames * "
             "(address + payload) must hold exactly"},
    RuleInfo{"BS011", Category::kBitstream, Severity::kError,
             "partial stream does not fit inside any single PRR of the "
             "floorplan",
             "rebuild the persona for one of the floorplan's PRRs"},
    // Model and scenario rules (model::Params::validate delegates to these).
    RuleInfo{"MD001", Category::kModel, Severity::kError,
             "nCalls must be at least 1", "run at least one task call"},
    RuleInfo{"MD002", Category::kModel, Severity::kError,
             "xTask must be positive and finite",
             "task time is normalized by T_FRTR and cannot be zero"},
    RuleInfo{"MD003", Category::kModel, Severity::kError,
             "xPrtr must lie in (0, 1]: a partial configuration cannot "
             "exceed the full configuration",
             "check T_PRTR and T_FRTR; equation (2) normalizes by T_FRTR"},
    RuleInfo{"MD004", Category::kModel, Severity::kError,
             "xControl must be non-negative",
             "transfer-of-control time cannot be negative"},
    RuleInfo{"MD005", Category::kModel, Severity::kError,
             "xDecision must be non-negative",
             "pre-fetch decision latency cannot be negative"},
    RuleInfo{"MD006", Category::kModel, Severity::kError,
             "hitRatio must lie in [0, 1]",
             "H is the fraction of calls finding their module resident"},
    RuleInfo{"MD007", Category::kModel, Severity::kWarning,
             "PRTR cannot beat FRTR at these parameters (asymptotic "
             "speedup <= 1, equation 7)",
             "reduce xPrtr (finer-grained PRRs) or raise the hit ratio"},
    RuleInfo{"MD008", Category::kModel, Severity::kWarning,
             "requested speedup target is unreachable at any hit ratio "
             "(equation 7 supremum below target)",
             "the bound (1 + xTask)/xTask caps the speedup; lower the "
             "target or shrink xTask"},
    RuleInfo{"MD009", Category::kModel, Severity::kWarning,
             "forceMiss reconfigures on every call, so the configured "
             "cache policy has no effect",
             "disable forceMiss to exercise the cache, or drop the policy "
             "back to the default"},
    RuleInfo{"MD010", Category::kModel, Severity::kWarning,
             "prefetcher configuration is contradictory (prefetcher set "
             "but never consulted, or consulted but absent)",
             "match ScenarioOptions::prepare with prefetcherKind"},
    RuleInfo{"MD011", Category::kModel, Severity::kError,
             "unknown cache policy name",
             "use one of the policies listed by knownCachePolicies()"},
    RuleInfo{"MD012", Category::kModel, Severity::kError,
             "unknown prefetcher kind",
             "use one of the kinds listed by knownPrefetcherKinds()"},
    // Fault-plan and recovery rules (checks_fault.hpp; prtr-lint fault-spec).
    RuleInfo{"FT001", Category::kFault, Severity::kError,
             "fault rate outside [0, 1]",
             "rates are probabilities per event; keep them in [0, 1]"},
    RuleInfo{"FT002", Category::kFault, Severity::kError,
             "link stalls enabled with a non-positive stall duration",
             "give stall-us a positive value or set link-stall-rate to 0"},
    RuleInfo{"FT003", Category::kFault, Severity::kError,
             "fixed-schedule arrival needs a positive period",
             "set fixed-period to 1 or more"},
    RuleInfo{"FT004", Category::kFault, Severity::kError,
             "unknown arrival model",
             "use 'poisson' or 'fixed'"},
    RuleInfo{"FT005", Category::kFault, Severity::kError,
             "unknown verify mode",
             "use 'off', 'on-fault', or 'always'"},
    RuleInfo{"FT006", Category::kFault, Severity::kError,
             "backoff schedule cannot make progress (non-positive base or "
             "factor below 1)",
             "use a positive backoff-us and a backoff-factor >= 1"},
    RuleInfo{"FT007", Category::kFault, Severity::kWarning,
             "fault plan enables no fault kind, so the chaos run is a no-op",
             "raise at least one rate, or drop the plan"},
    RuleInfo{"FT008", Category::kFault, Severity::kWarning,
             "faults are injected but recovery is disabled: the first fault "
             "aborts the scenario",
             "enable recovery, or accept fail-fast semantics deliberately"},
    RuleInfo{"FT009", Category::kFault, Severity::kWarning,
             "recovery can neither retry nor escalate (zero retries with "
             "the ladder disabled)",
             "allow at least one retry or enable the degradation ladder"},
    RuleInfo{"FT010", Category::kFault, Severity::kWarning,
             "word-flip rate above 1e-2 per word corrupts nearly every "
             "load; repair rounds will thrash",
             "lower word-flip-rate (the chaos sweeps use 1e-6..1e-4)"},
    // Fleet-configuration rules (checks_fleet.hpp; prtr-lint fleet-spec).
    RuleInfo{"FL001", Category::kFleet, Severity::kError,
             "fleet topology invalid (no cells, or blades per cell outside "
             "the XD1 chassis bound of 1..6)",
             "use at least one cell and 1..6 blades per cell"},
    RuleInfo{"FL002", Category::kFleet, Severity::kError,
             "fleet run needs at least one request",
             "set requests to 1 or more"},
    RuleInfo{"FL003", Category::kFleet, Severity::kError,
             "offered-load must be positive and finite",
             "target a per-blade utilization like 0.7"},
    RuleInfo{"FL004", Category::kFleet, Severity::kError,
             "unknown routing policy name",
             "use 'least-loaded', 'p2c', or 'round-robin'"},
    RuleInfo{"FL005", Category::kFleet, Severity::kError,
             "unknown arrival process name",
             "use 'poisson', 'fixed-rate', or 'trace'"},
    RuleInfo{"FL006", Category::kFleet, Severity::kError,
             "trace-driven arrivals configured without a trace",
             "supply TraceArrival entries programmatically, or use a "
             "synthetic arrival process"},
    RuleInfo{"FL007", Category::kFleet, Severity::kError,
             "retry policy degenerate (zero attempts or negative budget)",
             "allow at least one attempt and a non-negative retry-budget"},
    RuleInfo{"FL008", Category::kFleet, Severity::kError,
             "breaker thresholds degenerate (zero failure threshold, zero "
             "probes, more required probe successes than probes, or a "
             "non-positive open duration)",
             "keep failures >= 1, probes >= successes >= 1, open-us > 0"},
    RuleInfo{"FL009", Category::kFleet, Severity::kError,
             "hedge configuration invalid (quantile outside (0, 1) or "
             "negative hedge budget)",
             "hedge at a tail quantile like 0.95 with a small budget"},
    RuleInfo{"FL010", Category::kFleet, Severity::kError,
             "request-mix parameter out of range (no users, task-affinity "
             "or payload-spread or degraded-fraction outside bounds, or a "
             "payload under 2 bytes)",
             "keep fractions within [0, 1] (spread below 1) and size the "
             "payload in bytes"},
    RuleInfo{"FL011", Category::kFleet, Severity::kError,
             "admission policy can never admit (zero queue depth or a "
             "non-positive SLO factor)",
             "allow at least depth 1 and a positive slo-factor"},
    RuleInfo{"FL012", Category::kFleet, Severity::kWarning,
             "offered-load at or above 1 saturates every blade; the open "
             "loop will shed heavily and the queue-wait tail is unbounded "
             "by design",
             "stay below 1.0 per blade, or accept the overload study"},
    RuleInfo{"FL013", Category::kFleet, Severity::kWarning,
             "retry budget above 0.5 lets retries add more than half of "
             "fresh traffic again — a retry-storm risk under correlated "
             "failure",
             "keep retry-budget at or below 0.5 (production proxies "
             "default to ~0.2)"},
    RuleInfo{"FL014", Category::kFleet, Severity::kWarning,
             "chaos no-op: degraded-fraction marks blades hostile but the "
             "degraded fault plan injects nothing",
             "give the degraded plan at least one positive rate, or drop "
             "degraded-fraction"},
    RuleInfo{"FL015", Category::kFleet, Severity::kWarning,
             "degraded blades configured with the circuit breaker "
             "disabled: nothing isolates a failing blade from traffic",
             "enable the breaker for chaos runs, or accept sustained "
             "failures deliberately"},
    RuleInfo{"FL016", Category::kFleet, Severity::kError,
             "rate limiter enabled with a non-positive refill rate or "
             "burst",
             "give rate-limit-rps and rate-limit-burst positive values, or "
             "disable the limiter"},
    RuleInfo{"FL017", Category::kFleet, Severity::kWarning,
             "degenerate calibration: a task profile carries a zero cost "
             "component (flat execute slope, free persona reload, or zero "
             "configuration words)",
             "calibrate against scenarios whose payloads actually differ, "
             "and check the hardware function registry"},
    // Trace-sampling rules (trace::TracePolicy via checks_fleet.hpp).
    RuleInfo{"TR001", Category::kTracing, Severity::kError,
             "trace sample rate outside [0, 1]",
             "the rate is a keep probability for non-tail requests"},
    RuleInfo{"TR002", Category::kTracing, Severity::kError,
             "trace slow quantile outside (0, 1)",
             "use a tail quantile like 0.99; 1.0 would never classify a "
             "completion as slow"},
    RuleInfo{"TR003", Category::kTracing, Severity::kError,
             "positive sample rate with a zero per-cell sample cap keeps "
             "no rate-sampled trace at all",
             "raise trace-max-per-cell, or set the sample rate to 0 to "
             "keep only tail traces"},
    RuleInfo{"TR004", Category::kTracing, Severity::kWarning,
             "sample rate at or above 0.5 on a large run will retain "
             "most requests; the trace file will be huge",
             "sample at 1% or below on runs beyond 100k requests; tail "
             "requests are always kept regardless"},
    // SLO burn-rate rules (obs::SloSpec via checks_fleet.hpp).
    RuleInfo{"SL001", Category::kSlo, Severity::kError,
             "SLO objective outside (0, 1)",
             "state the objective as a good fraction like 0.999"},
    RuleInfo{"SL002", Category::kSlo, Severity::kError,
             "SLO window or latency target invalid (non-positive window, "
             "or a negative latency target)",
             "use a positive slo-window-us; latency target 0 derives the "
             "admission deadline"},
    RuleInfo{"SL003", Category::kSlo, Severity::kError,
             "burn-rate windows degenerate (zero windows, or the fast "
             "window wider than the slow window)",
             "keep 1 <= fast windows <= slow windows (the classic pair is "
             "3 and 12)"},
    RuleInfo{"SL004", Category::kSlo, Severity::kError,
             "burn-rate thresholds degenerate (non-positive, or the fast "
             "threshold below the slow threshold)",
             "use fast-burn >= slow-burn > 0 (the classic pair is 14 and "
             "6)"},
    RuleInfo{"SL005", Category::kSlo, Severity::kWarning,
             "error budget smaller than ~10 requests over the whole run: "
             "burn rates will be all-or-nothing noise",
             "loosen the objective or run more requests so the budget is "
             "statistically meaningful"},
    // Happens-before race rules (verify::RaceDetector; exec instrumentation).
    RuleInfo{"RC001", Category::kRace, Severity::kError,
             "write/write race: two threads wrote the same shared object "
             "with no happens-before edge between them",
             "order the writes through a sync object (task hand-off, "
             "barrier, or mutex) or make the object thread-local"},
    RuleInfo{"RC002", Category::kRace, Severity::kError,
             "read/write race: a read and a later write of the same shared "
             "object are unordered",
             "publish the write through a release/acquire edge the reader "
             "passes through"},
    RuleInfo{"RC003", Category::kRace, Severity::kError,
             "write/read race: a read observes a write it is not ordered "
             "after",
             "acquire from the sync object the writer released into before "
             "reading"},
    RuleInfo{"RC004", Category::kRace, Severity::kWarning,
             "sync object acquired that was never released into (empty "
             "causal past; likely an instrumentation gap)",
             "check that every acquire() site has a matching release() on "
             "the producing thread"},
    // Timeline invariant rules (verify::checkTimelines; prtr-verify trace).
    RuleInfo{"TL001", Category::kTimeline, Severity::kError,
             "span violates causality: it ends before it starts",
             "fix the emitting component's clock arithmetic; durations "
             "must be non-negative"},
    RuleInfo{"TL002", Category::kTimeline, Severity::kError,
             "lane is not time-ordered: a span starts before the previous "
             "span on the same lane",
             "emit spans in nondecreasing start order per lane (sim::"
             "Timeline::record appends in event order)"},
    RuleInfo{"TL003", Category::kTimeline, Severity::kError,
             "overlapping spans on a serial resource lane",
             "a serial lane (CPU, recovery) can host one activity at a "
             "time; check the scheduler's busy-until bookkeeping"},
    RuleInfo{"TL004", Category::kTimeline, Severity::kError,
             "PRR double-residency: two personas occupy one PRR at "
             "overlapping times",
             "a PRR hosts one module between reconfigurations; serialize "
             "the residency intervals"},
    RuleInfo{"TL005", Category::kTimeline, Severity::kError,
             "ICAP mutual exclusion violated: overlapping configuration "
             "sessions",
             "the configuration port is a single resource; queue "
             "reconfiguration requests"},
    RuleInfo{"TL006", Category::kTimeline, Severity::kError,
             "link occupancy not conserved: overlapping transfers on a "
             "simplex link",
             "HT-in/HT-out model dedicated simplex channels; serialize "
             "transfers per direction"},
    RuleInfo{"TL007", Category::kTimeline, Severity::kWarning,
             "recovery span with no configuration activity inside it",
             "a recovery episode must contain at least one retry or "
             "degraded reload on the config lane"},
    // Request-lane rules (verify::checkRequestLanes; prtr-verify trace).
    RuleInfo{"RQ001", Category::kRequest, Severity::kError,
             "span outlives its request: a child span extends outside the "
             "root 'request ...' span",
             "the root must cover every attempt, including losing hedge "
             "copies; check the recorder's finalize clipping"},
    RuleInfo{"RQ002", Category::kRequest, Severity::kError,
             "request lane without exactly one root 'request ...' span",
             "every rq: lane carries one request; check the exporter's "
             "lane naming"},
    RuleInfo{"RQ003", Category::kRequest, Severity::kError,
             "attempt nesting broken: a queue/service/stall/reload/execute "
             "span escapes its attempt's bounds",
             "component spans of attempt N must lie inside attempt#N; "
             "check the service-breakdown arithmetic"},
    RuleInfo{"RQ004", Category::kRequest, Severity::kError,
             "component span references an attempt number with no attempt "
             "span on the lane",
             "every dispatch must open an attempt span before queue/"
             "service spans reference it"},
    RuleInfo{"RQ005", Category::kRequest, Severity::kError,
             "hedge winner not unique (multiple 'hedge:win' marks, or a "
             "win with no hedged attempt)",
             "exactly one copy may win; check the completion handler's "
             "first-completion-wins logic"},
    RuleInfo{"RQ006", Category::kRequest, Severity::kWarning,
             "request shed at admission but the lane records dispatch "
             "activity",
             "a shed request never reaches a blade; check the admission "
             "path's early-exit ordering"},
    // Determinism rules (verify::exploreSchedules; prtr-verify explore).
    RuleInfo{"DT001", Category::kDeterminism, Severity::kError,
             "schedule-dependent result: a perturbed pool interleaving "
             "changed the sweep's bytes",
             "store results by index and keep reductions in index order "
             "(the pool determinism contract)"},
    RuleInfo{"DT002", Category::kDeterminism, Severity::kError,
             "two captures of the same scenario disagree (trace diff)",
             "eliminate the nondeterminism source (unseeded RNG, wall "
             "clock, iteration over pointer-keyed maps)"},
    RuleInfo{"DT003", Category::kDeterminism, Severity::kWarning,
             "schedule exploration exercised fewer distinct interleavings "
             "than requested",
             "raise the seed count or widen the pool; a narrow pool "
             "collapses many seeds onto one schedule"},
};

}  // namespace

std::span<const RuleInfo> ruleCatalog() noexcept { return kCatalog; }

const RuleInfo& ruleInfo(std::string_view code) {
  const auto it = std::find_if(kCatalog.begin(), kCatalog.end(),
                               [&](const RuleInfo& r) { return code == r.code; });
  util::require(it != kCatalog.end(),
                "ruleInfo: unknown diagnostic code '" + std::string{code} + "'");
  return *it;
}

std::string renderRuleReference() {
  std::ostringstream os;
  os << "# prtr-lint rule reference\n\n"
     << "Generated by `prtr-lint codes --markdown` from "
        "`prtr::analyze::ruleCatalog()`. Do not edit by hand.\n";
  Category last = Category::kModel;
  bool first = true;
  for (const RuleInfo& rule : kCatalog) {
    if (first || rule.category != last) {
      os << "\n## " << toString(rule.category) << " rules\n\n"
         << "| Code | Severity | Summary | Fix |\n"
         << "|------|----------|---------|-----|\n";
      last = rule.category;
      first = false;
    }
    os << "| " << rule.code << " | " << toString(rule.severity) << " | "
       << rule.summary << " | " << rule.fixHint << " |\n";
  }
  return os.str();
}

std::string Diagnostic::format() const {
  std::string out = std::string{toString(severity)} + "[" + code + "] " +
                    location + ": " + message;
  if (!fixHint.empty()) out += " (fix: " + fixHint + ")";
  return out;
}

void DiagnosticSink::emit(std::string_view code, std::string location,
                          std::string message, std::string fixHint) {
  const RuleInfo& rule = ruleInfo(code);
  Diagnostic d;
  d.code = rule.code;
  d.severity = rule.severity;
  d.location = std::move(location);
  d.message = std::move(message);
  d.fixHint = fixHint.empty() ? rule.fixHint : std::move(fixHint);
  if (d.severity == Severity::kError) ++errors_;
  diagnostics_.push_back(std::move(d));
}

const Diagnostic& DiagnosticSink::firstError() const {
  const auto it = std::find_if(
      diagnostics_.begin(), diagnostics_.end(),
      [](const Diagnostic& d) { return d.severity == Severity::kError; });
  util::require(it != diagnostics_.end(),
                "DiagnosticSink: no error diagnostic recorded");
  return *it;
}

bool DiagnosticSink::has(std::string_view code) const noexcept {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

std::vector<std::string> DiagnosticSink::codes() const {
  std::vector<std::string> out;
  for (const Diagnostic& d : diagnostics_) out.push_back(d.code);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string DiagnosticSink::toText() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics_) os << d.format() << '\n';
  os << errorCount() << " error(s), " << warningCount() << " warning(s)\n";
  return os.str();
}

std::string DiagnosticSink::toJson() const {
  std::ostringstream os;
  os << "{\"errors\":" << errorCount() << ",\"warnings\":" << warningCount()
     << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    if (i > 0) os << ',';
    os << "{\"code\":\"" << jsonEscape(d.code) << "\",\"severity\":\""
       << toString(d.severity) << "\",\"category\":\""
       << toString(ruleInfo(d.code).category) << "\",\"location\":\""
       << jsonEscape(d.location) << "\",\"message\":\"" << jsonEscape(d.message)
       << "\",\"fixHint\":\"" << jsonEscape(d.fixHint) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string jsonEscape(std::string_view text) {
  return util::json::escape(text);
}
}  // namespace prtr::analyze
