#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "util/error.hpp"
#include "util/json.hpp"

namespace prtr::obs {

std::string microsecondsFromPicoseconds(std::int64_t ps) {
  const bool negative = ps < 0;
  const std::uint64_t magnitude =
      negative ? 0ULL - static_cast<std::uint64_t>(ps)
               : static_cast<std::uint64_t>(ps);
  const std::uint64_t whole = magnitude / 1'000'000ULL;
  std::uint64_t frac = magnitude % 1'000'000ULL;
  std::string out = negative ? "-" : "";
  out += std::to_string(whole);
  if (frac != 0) {
    char digits[7];
    for (int i = 5; i >= 0; --i) {
      digits[i] = static_cast<char>('0' + frac % 10);
      frac /= 10;
    }
    digits[6] = '\0';
    std::string fracText{digits};
    while (fracText.back() == '0') fracText.pop_back();
    out += '.';
    out += fracText;
  }
  return out;
}

void ChromeTrace::add(const std::string& processName,
                      const sim::Timeline& timeline) {
  Process proc;
  proc.name = processName;
  proc.spans = timeline.materialize();
  proc.spanLane.reserve(proc.spans.size());
  for (const sim::NamedSpan& span : proc.spans) {
    const auto it = std::find(proc.lanes.begin(), proc.lanes.end(), span.lane);
    if (it == proc.lanes.end()) {
      proc.spanLane.push_back(proc.lanes.size());
      proc.lanes.push_back(span.lane);
    } else {
      proc.spanLane.push_back(
          static_cast<std::size_t>(it - proc.lanes.begin()));
    }
  }
  processes_.push_back(std::move(proc));
}

void ChromeTrace::addProcess(ProcessTrace process) {
  Process proc;
  proc.name = std::move(process.name);
  proc.lanes = std::move(process.lanes);
  std::unordered_map<std::string, std::size_t> laneIndex;
  laneIndex.reserve(proc.lanes.size());
  for (std::size_t t = 0; t < proc.lanes.size(); ++t) {
    laneIndex.emplace(proc.lanes[t], t);
  }
  const auto resolve = [&](const std::string& lane) {
    const auto it = laneIndex.find(lane);
    if (it != laneIndex.end()) return it->second;
    const std::size_t idx = proc.lanes.size();
    proc.lanes.push_back(lane);
    laneIndex.emplace(lane, idx);
    return idx;
  };
  proc.spans = std::move(process.spans);
  proc.spanLane.reserve(proc.spans.size());
  for (const sim::NamedSpan& span : proc.spans) {
    proc.spanLane.push_back(resolve(span.lane));
  }
  proc.instants = std::move(process.instants);
  proc.instantLane.reserve(proc.instants.size());
  for (const TraceInstant& instant : proc.instants) {
    proc.instantLane.push_back(resolve(instant.lane));
  }
  proc.flows = std::move(process.flows);
  proc.flowLane.reserve(proc.flows.size());
  for (const TraceFlow& flow : proc.flows) {
    proc.flowLane.push_back(resolve(flow.lane));
  }
  processes_.push_back(std::move(proc));
}

void ChromeTrace::addCounters(const std::string& processName,
                              std::vector<CounterTrack> tracks) {
  for (Process& proc : processes_) {
    if (proc.name == processName) {
      for (CounterTrack& track : tracks) {
        proc.counters.push_back(std::move(track));
      }
      return;
    }
  }
  Process proc;
  proc.name = processName;
  proc.counters = std::move(tracks);
  processes_.push_back(std::move(proc));
}

void ChromeTrace::write(std::ostream& os) const {
  util::json::Writer w{os};
  w.beginObject();
  w.key("traceEvents").beginArray();
  // Metadata first: names and explicit sort indexes for every process and
  // lane-thread, in insertion order, so viewers keep the recorded order
  // instead of sorting lanes by first-event timestamp.
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    const Process& proc = processes_[p];
    w.beginObject();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(static_cast<std::uint64_t>(p + 1));
    w.key("tid").value(std::uint64_t{0});
    w.key("args").beginObject().key("name").value(proc.name).endObject();
    w.endObject();
    w.beginObject();
    w.key("name").value("process_sort_index");
    w.key("ph").value("M");
    w.key("pid").value(static_cast<std::uint64_t>(p + 1));
    w.key("tid").value(std::uint64_t{0});
    w.key("args")
        .beginObject()
        .key("sort_index")
        .value(static_cast<std::uint64_t>(p + 1))
        .endObject();
    w.endObject();
    for (std::size_t t = 0; t < proc.lanes.size(); ++t) {
      w.beginObject();
      w.key("name").value("thread_name");
      w.key("ph").value("M");
      w.key("pid").value(static_cast<std::uint64_t>(p + 1));
      w.key("tid").value(static_cast<std::uint64_t>(t + 1));
      w.key("args").beginObject().key("name").value(proc.lanes[t]).endObject();
      w.endObject();
      w.beginObject();
      w.key("name").value("thread_sort_index");
      w.key("ph").value("M");
      w.key("pid").value(static_cast<std::uint64_t>(p + 1));
      w.key("tid").value(static_cast<std::uint64_t>(t + 1));
      w.key("args")
          .beginObject()
          .key("sort_index")
          .value(static_cast<std::uint64_t>(t + 1))
          .endObject();
      w.endObject();
    }
  }
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    const Process& proc = processes_[p];
    for (std::size_t i = 0; i < proc.spans.size(); ++i) {
      const sim::NamedSpan& span = proc.spans[i];
      w.beginObject();
      w.key("name").value(span.label);
      w.key("cat").value(span.lane);
      w.key("ph").value("X");
      w.key("pid").value(static_cast<std::uint64_t>(p + 1));
      w.key("tid").value(static_cast<std::uint64_t>(proc.spanLane[i] + 1));
      w.key("ts").raw(microsecondsFromPicoseconds(span.start.ps()));
      w.key("dur").raw(microsecondsFromPicoseconds((span.end - span.start).ps()));
      w.endObject();
    }
  }
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    const Process& proc = processes_[p];
    for (std::size_t i = 0; i < proc.instants.size(); ++i) {
      const TraceInstant& instant = proc.instants[i];
      w.beginObject();
      w.key("name").value(instant.label);
      w.key("cat").value(proc.lanes[proc.instantLane[i]]);
      w.key("ph").value("i");
      w.key("s").value("t");
      w.key("pid").value(static_cast<std::uint64_t>(p + 1));
      w.key("tid").value(static_cast<std::uint64_t>(proc.instantLane[i] + 1));
      w.key("ts").raw(microsecondsFromPicoseconds(instant.atPs));
      w.endObject();
    }
  }
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    const Process& proc = processes_[p];
    for (std::size_t i = 0; i < proc.flows.size(); ++i) {
      const TraceFlow& flow = proc.flows[i];
      w.beginObject();
      w.key("name").value(flow.label);
      w.key("cat").value("flow");
      w.key("ph").value(flow.begin ? "s" : "f");
      if (!flow.begin) w.key("bp").value("e");
      w.key("id").value(flow.id);
      w.key("pid").value(static_cast<std::uint64_t>(p + 1));
      w.key("tid").value(static_cast<std::uint64_t>(proc.flowLane[i] + 1));
      w.key("ts").raw(microsecondsFromPicoseconds(flow.atPs));
      w.endObject();
    }
  }
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    const Process& proc = processes_[p];
    for (const CounterTrack& track : proc.counters) {
      for (const CounterSample& sample : track.samples) {
        w.beginObject();
        w.key("name").value(track.name);
        w.key("ph").value("C");
        w.key("pid").value(static_cast<std::uint64_t>(p + 1));
        w.key("ts").raw(microsecondsFromPicoseconds(sample.at_ps));
        w.key("args")
            .beginObject()
            .key("value")
            .value(sample.value)
            .endObject();
        w.endObject();
      }
    }
  }
  w.endArray();
  w.key("displayTimeUnit").value("ms");
  w.endObject();
}

std::string ChromeTrace::toJson() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void ChromeTrace::writeFile(const std::string& path) const {
  std::ofstream file{path};
  if (!file) throw util::Error{"ChromeTrace: cannot open " + path + " for writing"};
  write(file);
}

namespace {

/// Lane roles for bucketed occupancy sampling. Classified once per lane id
/// from the timeline's symbol table; the per-span loop is integer-only.
enum class LaneRole : std::uint8_t { kOther, kLinkIn, kLinkOut, kIcap, kCompute };

LaneRole classify(std::string_view lane) {
  if (lane == "HT-in") return LaneRole::kLinkIn;
  if (lane == "HT-out") return LaneRole::kLinkOut;
  if (lane == "config") return LaneRole::kIcap;
  if (lane == "FPGA" || lane.starts_with("PRR")) return LaneRole::kCompute;
  return LaneRole::kOther;
}

/// Accumulates the [start, end) overlap of one span into per-bucket busy
/// picosecond counts.
void accumulate(std::vector<std::uint64_t>& busy, std::int64_t width,
                std::int64_t start, std::int64_t end) {
  if (end <= start || width <= 0) return;
  const auto first = static_cast<std::size_t>(start / width);
  for (std::size_t b = first; b < busy.size(); ++b) {
    const std::int64_t lo = static_cast<std::int64_t>(b) * width;
    if (lo >= end) break;
    const std::int64_t hi = lo + width;
    const std::int64_t overlap = std::min(end, hi) - std::max(start, lo);
    if (overlap > 0) busy[b] += static_cast<std::uint64_t>(overlap);
  }
}

CounterTrack finishTrack(std::string name,
                              const std::vector<std::uint64_t>& busy,
                              std::int64_t width, std::int64_t horizon,
                              std::uint64_t laneCount) {
  CounterTrack track;
  track.name = std::move(name);
  track.samples.reserve(busy.size());
  for (std::size_t b = 0; b < busy.size(); ++b) {
    const std::int64_t lo = static_cast<std::int64_t>(b) * width;
    const std::int64_t span = std::min(width, horizon - lo);
    if (span <= 0) break;
    const double denom =
        static_cast<double>(span) * static_cast<double>(laneCount);
    const double fraction =
        std::min(1.0, static_cast<double>(busy[b]) / denom);
    track.samples.push_back({lo, fraction});
  }
  return track;
}

}  // namespace

std::vector<CounterTrack> sampleTimelineCounters(
    const sim::Timeline& timeline, std::size_t buckets) {
  std::vector<CounterTrack> tracks;
  const std::int64_t horizon = timeline.horizon().ps();
  if (horizon <= 0 || buckets == 0 || timeline.empty()) return tracks;

  const auto n = static_cast<std::int64_t>(buckets);
  const std::int64_t width = (horizon + n - 1) / n;  // >= 1 ps
  const auto bucketCount =
      static_cast<std::size_t>((horizon + width - 1) / width);

  std::vector<std::uint64_t> linkIn(bucketCount), linkOut(bucketCount),
      icap(bucketCount), compute(bucketCount);
  bool haveIn = false, haveOut = false, haveIcap = false;

  const sim::SymbolTable& symbols = timeline.symbols();
  std::vector<LaneRole> roles(symbols.laneCount());
  std::vector<bool> computeSeen(symbols.laneCount(), false);
  for (std::size_t i = 0; i < roles.size(); ++i) {
    roles[i] = classify(symbols.laneNames()[i]);
  }
  std::uint64_t computeLanes = 0;

  for (const sim::Span& span : timeline.spans()) {
    const std::int64_t start = span.start.ps();
    const std::int64_t end = span.end.ps();
    switch (roles[span.lane.index()]) {
      case LaneRole::kLinkIn:
        haveIn = true;
        accumulate(linkIn, width, start, end);
        break;
      case LaneRole::kLinkOut:
        haveOut = true;
        accumulate(linkOut, width, start, end);
        break;
      case LaneRole::kIcap:
        haveIcap = true;
        accumulate(icap, width, start, end);
        break;
      case LaneRole::kCompute:
        if (!computeSeen[span.lane.index()]) {
          computeSeen[span.lane.index()] = true;
          ++computeLanes;
        }
        accumulate(compute, width, start, end);
        break;
      case LaneRole::kOther:
        break;
    }
  }

  if (haveIn) {
    tracks.push_back(
        finishTrack("link.in.occupancy", linkIn, width, horizon, 1));
  }
  if (haveOut) {
    tracks.push_back(
        finishTrack("link.out.occupancy", linkOut, width, horizon, 1));
  }
  if (haveIcap) {
    tracks.push_back(finishTrack("icap.busy", icap, width, horizon, 1));
  }
  if (computeLanes > 0) {
    tracks.push_back(
        finishTrack("prr.residency", compute, width, horizon, computeLanes));
  }
  return tracks;
}

}  // namespace prtr::obs
