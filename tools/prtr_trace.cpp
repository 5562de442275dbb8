/// \file prtr_trace.cpp
/// prtr-trace — post-hoc analysis of fleet request traces. Reads the
/// Chrome/Perfetto JSON a `prtr-bench fleet --trace` run (or any
/// fleet::runFleet with a trace hook) exported, parses the request-lane
/// label grammar back (see trace/request.hpp), and answers the questions
/// a tail-sampled trace exists to answer: what was kept and why, which
/// requests were slowest, where blade time went, and what one request's
/// critical path looked like. Exit code 0 on success, 2 on usage or I/O
/// problems; the invariant gate itself lives in `prtr-verify trace`.
///
///   prtr-trace summary <file>...
///   prtr-trace slowest [--top N] <file>
///   prtr-trace blades <file>
///   prtr-trace hedges <file>
///   prtr-trace critical-path <rq:lane|trace-id> <file>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_export.hpp"
#include "util/error.hpp"
#include "verify/request_rules.hpp"
#include "verify/trace_load.hpp"

namespace {

using namespace prtr;

int usage() {
  std::cerr
      << "usage: prtr-trace <command> [args] <file>...\n"
         "  summary <file>...        kept requests by outcome, span/mark\n"
         "                           totals, blade mark counts\n"
         "  slowest [--top N] <file> slowest kept requests by end-to-end\n"
         "                           latency (default top 10)\n"
         "  blades <file>            per-blade service time and its\n"
         "                           stall/reload/execute composition\n"
         "  hedges <file>            hedged requests: launches, wins,\n"
         "                           cancelled losers\n"
         "  critical-path <lane> <file>\n"
         "                           one request's spans and marks in\n"
         "                           causal order ('rq:' prefix optional)\n"
         "exit codes: 0 success, 2 usage or I/O problems\n";
  return 2;
}

std::string us(std::int64_t ps) {
  return obs::microsecondsFromPicoseconds(ps) + " us";
}

/// One request lane regrouped from a loaded process.
struct RequestView {
  std::string_view lane;
  std::string_view outcome;         ///< from the root span label
  std::int64_t latencyPs = 0;       ///< root span duration
  std::int64_t startPs = 0;
  std::vector<const sim::NamedSpan*> spans;
  std::vector<const verify::InstantEvent*> marks;
  int attempts = 0;
  bool hedged = false;
};

/// Regroups every request lane of every process; spans stay in export
/// order (startPs ascending, parents first).
std::vector<RequestView> collectRequests(
    const std::vector<verify::TraceProcess>& processes) {
  std::vector<RequestView> requests;
  for (const verify::TraceProcess& process : processes) {
    std::map<std::string_view, std::size_t> byLane;
    const auto view = [&](std::string_view lane) -> RequestView& {
      const auto [it, fresh] = byLane.try_emplace(lane, requests.size());
      if (fresh) {
        requests.emplace_back();
        requests.back().lane = lane;
      }
      return requests[it->second];
    };
    for (const sim::NamedSpan& span : process.spans) {
      if (!verify::isRequestLane(span.lane)) continue;
      RequestView& rq = view(span.lane);
      rq.spans.push_back(&span);
      const verify::RequestLabel label = verify::parseRequestLabel(span.label);
      if (label.kind == verify::RequestLabel::Kind::kRequest) {
        rq.outcome = label.outcome;
        rq.startPs = span.start.ps();
        rq.latencyPs = span.end.ps() - span.start.ps();
      } else if (label.kind == verify::RequestLabel::Kind::kAttempt) {
        ++rq.attempts;
        if (label.hedge) rq.hedged = true;
      }
    }
    for (const verify::InstantEvent& mark : process.instants) {
      if (!verify::isRequestLane(mark.lane)) continue;
      view(mark.lane).marks.push_back(&mark);
    }
  }
  return requests;
}

int summary(const std::vector<std::string>& files) {
  for (const std::string& file : files) {
    const auto processes = verify::loadChromeTraceFile(file);
    const auto requests = collectRequests(processes);
    std::map<std::string_view, std::uint64_t> outcomes;
    std::map<std::string_view, std::uint64_t> marks;
    std::uint64_t spanCount = 0;
    for (const RequestView& rq : requests) {
      ++outcomes[rq.outcome.empty() ? "<no root>" : rq.outcome];
      spanCount += rq.spans.size();
    }
    std::uint64_t bladeMarks = 0;
    for (const verify::TraceProcess& process : processes) {
      for (const verify::InstantEvent& mark : process.instants) {
        ++marks[mark.label];
        if (!verify::isRequestLane(mark.lane)) ++bladeMarks;
      }
    }
    std::cout << "== " << file << " ==\n"
              << requests.size() << " kept request(s), " << spanCount
              << " span(s), " << bladeMarks << " blade mark(s)\n";
    for (const auto& [outcome, count] : outcomes) {
      std::cout << "  outcome " << outcome << ": " << count << '\n';
    }
    for (const auto& [label, count] : marks) {
      std::cout << "  mark " << label << ": " << count << '\n';
    }
  }
  return 0;
}

int slowest(std::size_t top, const std::string& file) {
  const auto processes = verify::loadChromeTraceFile(file);
  auto requests = collectRequests(processes);
  std::sort(requests.begin(), requests.end(),
            [](const RequestView& a, const RequestView& b) {
              if (a.latencyPs != b.latencyPs) return a.latencyPs > b.latencyPs;
              return a.lane < b.lane;
            });
  if (requests.size() > top) requests.resize(top);
  for (const RequestView& rq : requests) {
    std::cout << rq.lane << "  " << us(rq.latencyPs) << "  "
              << (rq.outcome.empty() ? "<no root>" : rq.outcome) << "  "
              << rq.attempts << " attempt(s)" << (rq.hedged ? ", hedged" : "")
              << '\n';
  }
  return 0;
}

int blades(const std::string& file) {
  const auto processes = verify::loadChromeTraceFile(file);
  struct BladeTime {
    std::int64_t servicePs = 0;
    std::uint64_t services = 0;
  };
  std::map<int, BladeTime> perBlade;
  std::int64_t stallPs = 0, reloadPs = 0, executePs = 0;
  for (const verify::TraceProcess& process : processes) {
    for (const sim::NamedSpan& span : process.spans) {
      if (!verify::isRequestLane(span.lane)) continue;
      const verify::RequestLabel label = verify::parseRequestLabel(span.label);
      const std::int64_t duration = span.end.ps() - span.start.ps();
      switch (label.kind) {
        case verify::RequestLabel::Kind::kService: {
          BladeTime& blade = perBlade[label.blade];
          blade.servicePs += duration;
          ++blade.services;
          break;
        }
        case verify::RequestLabel::Kind::kStall: stallPs += duration; break;
        case verify::RequestLabel::Kind::kReload: reloadPs += duration; break;
        case verify::RequestLabel::Kind::kExecute:
          executePs += duration;
          break;
        default: break;
      }
    }
  }
  for (const auto& [blade, time] : perBlade) {
    std::cout << "blade" << blade << "  " << time.services << " service(s), "
              << us(time.servicePs) << '\n';
  }
  std::cout << "composition over kept requests: stall " << us(stallPs)
            << ", reload " << us(reloadPs) << ", execute " << us(executePs)
            << '\n';
  return 0;
}

int hedges(const std::string& file) {
  const auto processes = verify::loadChromeTraceFile(file);
  const auto requests = collectRequests(processes);
  std::uint64_t hedged = 0, wins = 0, cancelled = 0, launches = 0;
  for (const RequestView& rq : requests) {
    if (rq.hedged) ++hedged;
    for (const verify::InstantEvent* mark : rq.marks) {
      if (mark->label == "hedge:win") ++wins;
      if (mark->label == "hedge:cancel") ++cancelled;
      if (mark->label == "hedge:launch") ++launches;
    }
  }
  std::cout << hedged << " hedged request(s): " << launches << " launch(es), "
            << wins << " won, " << cancelled
            << " loser(s) cancelled in queue\n";
  return 0;
}

int criticalPath(const std::string& laneArg, const std::string& file) {
  const std::string lane =
      laneArg.rfind("rq:", 0) == 0 ? laneArg : "rq:" + laneArg;
  const auto processes = verify::loadChromeTraceFile(file);
  const auto requests = collectRequests(processes);
  for (const RequestView& rq : requests) {
    if (rq.lane != lane) continue;
    for (const sim::NamedSpan* span : rq.spans) {
      std::cout << "  [" << us(span->start.ps()) << " +"
                << us(span->end.ps() - span->start.ps()) << "] "
                << span->label << '\n';
    }
    for (const verify::InstantEvent* mark : rq.marks) {
      std::cout << "  @" << us(mark->at.ps()) << " " << mark->label << '\n';
    }
    return 0;
  }
  std::cerr << "prtr-trace: no kept request lane '" << lane << "' in "
            << file << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  if (args.empty()) return usage();
  const std::string command = args[0];
  args.erase(args.begin());

  try {
    if (command == "--help" || command == "help") {
      usage();
      return 0;
    }
    if (command == "summary") {
      if (args.empty()) return usage();
      return summary(args);
    }
    if (command == "slowest") {
      std::size_t top = 10;
      if (args.size() >= 2 && args[0] == "--top") {
        top = static_cast<std::size_t>(std::stoi(args[1]));
        args.erase(args.begin(), args.begin() + 2);
      }
      if (args.size() != 1) return usage();
      return slowest(top, args[0]);
    }
    if (command == "blades") {
      if (args.size() != 1) return usage();
      return blades(args[0]);
    }
    if (command == "hedges") {
      if (args.size() != 1) return usage();
      return hedges(args[0]);
    }
    if (command == "critical-path") {
      if (args.size() != 2) return usage();
      return criticalPath(args[0], args[1]);
    }
  } catch (const std::exception& e) {
    std::cerr << "prtr-trace: " << e.what() << '\n';
    return 2;
  }
  return usage();
}
