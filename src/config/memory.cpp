#include "config/memory.hpp"

#include <algorithm>
#include <string>

#include "bitstream/builder.hpp"
#include "util/error.hpp"

namespace prtr::config {

ConfigMemory::ConfigMemory(const fabric::Device& device)
    : device_(&device), runs_{{0, Source{}}} {}

void ConfigMemory::requireFrame(std::uint32_t frame) const {
  util::require(frame < device_->geometry().totalFrames(),
                "ConfigMemory: frame out of range");
}

ConfigMemory::Source ConfigMemory::sourceOf(
    const bitstream::ParsedStream& stream) {
  if (!stream.bytes.empty()) return {stream.header.moduleId, 0, 0, true};
  return {stream.header.moduleId, stream.regionFirst, stream.framesUsed, false};
}

const ConfigMemory::Source& ConfigMemory::sourceAt(std::uint32_t frame) const {
  return std::prev(runs_.upper_bound(frame))->second;
}

void ConfigMemory::write(const bitstream::ParsedStream& stream) {
  const Source source = sourceOf(stream);
  const std::uint32_t frames = device_->geometry().totalFrames();
  for (const bitstream::FrameRun& run : stream.frameRuns) {
    if (std::uint64_t{run.first} + run.count > frames) {
      throw util::ConfigError{"ConfigMemory: frame run [" +
                              std::to_string(run.first) + ", +" +
                              std::to_string(run.count) +
                              ") exceeds the device's frames"};
    }
    if (run.count == 0) continue;
    // Split the run holding the end; the runs inside give way to this one.
    const std::uint32_t end = run.first + run.count;
    if (end < frames) runs_.try_emplace(end, sourceAt(end));
    runs_.erase(runs_.upper_bound(run.first), runs_.lower_bound(end));
    runs_[run.first] = source;
    overlay_.erase(overlay_.lower_bound(run.first), overlay_.lower_bound(end));
  }
  if (source.literal) {
    stream.forEachPayload(
        [this](std::uint32_t frame, std::span<const std::uint8_t> payload) {
          overlay_[frame].assign(payload.begin(), payload.end());
        });
  }
  framesWritten_ += stream.header.frameCount;
}

std::uint64_t ConfigMemory::frameOwner(std::uint32_t frame) const {
  requireFrame(frame);
  return sourceAt(frame).module;
}

void ConfigMemory::applyFull(const bitstream::ParsedStream& stream) {
  if (stream.header.type != bitstream::StreamType::kFull) {
    throw util::ConfigError{"ConfigMemory: applyFull needs a full stream"};
  }
  write(stream);
  done_ = true;
}

void ConfigMemory::applyPartial(const bitstream::ParsedStream& stream) {
  if (stream.header.type != bitstream::StreamType::kPartial) {
    throw util::ConfigError{"ConfigMemory: applyPartial needs a partial stream"};
  }
  if (!done_) {
    throw util::ConfigError{
        "ConfigMemory: dynamic partial reconfiguration requires an operating "
        "(fully configured) device"};
  }
  write(stream);
}

std::vector<std::uint8_t> ConfigMemory::frameContent(
    std::uint32_t frame) const {
  requireFrame(frame);
  if (const auto upset = overlay_.find(frame); upset != overlay_.end()) {
    return upset->second;
  }
  const Source& source = sourceAt(frame);
  return bitstream::framePayload(source.module, source.regionFirst,
                                 source.framesUsed, frame,
                                 device_->geometry().encoding().frameBytes);
}

void ConfigMemory::injectUpset(std::uint32_t frame, std::uint32_t offset,
                               std::uint8_t mask) {
  requireFrame(frame);
  util::require(offset < device_->geometry().encoding().frameBytes,
                "ConfigMemory: offset out of range");
  util::require(mask != 0, "ConfigMemory: empty upset mask");
  auto entry = overlay_.find(frame);
  if (entry == overlay_.end()) {
    entry = overlay_.emplace(frame, frameContent(frame)).first;
  }
  entry->second[offset] ^= mask;
  ++upsets_;
}

std::uint64_t ConfigMemory::repairFrames(
    const bitstream::ParsedStream& stream,
    const std::vector<std::uint32_t>& frames) {
  std::vector<std::uint32_t> wanted = frames;
  std::sort(wanted.begin(), wanted.end());
  const Source source = sourceOf(stream);
  std::uint64_t repaired = 0;
  stream.forEachPayload(
      [&](std::uint32_t frame, std::span<const std::uint8_t> payload) {
        // Where the run's own recipe makes the golden bytes, dropping the
        // overlay entry restores them; any other source needs a copy.
        if (!source.literal && sourceAt(frame) == source) {
          overlay_.erase(frame);
        } else {
          overlay_[frame].assign(payload.begin(), payload.end());
        }
        ++repaired;
      },
      [&wanted](std::uint32_t frame) {
        return std::binary_search(wanted.begin(), wanted.end(), frame);
      });
  framesWritten_ += repaired;
  return repaired;
}

std::vector<std::uint32_t> ConfigMemory::corruptedFrames(
    const bitstream::ParsedStream& golden,
    const std::vector<std::uint32_t>* subset) const {
  const Source source = sourceOf(golden);
  std::vector<std::uint32_t> corrupted;
  golden.forEachPayload(
      [&](std::uint32_t frame, std::span<const std::uint8_t> payload) {
        const std::vector<std::uint8_t> current = frameContent(frame);
        if (!std::equal(current.begin(), current.end(), payload.begin())) {
          corrupted.push_back(frame);
        }
      },
      [&](std::uint32_t frame) {
        // A frame its golden recipe wrote, untouched since, is clean unread.
        return (subset == nullptr ||
                std::binary_search(subset->begin(), subset->end(), frame)) &&
               (source.literal || overlay_.contains(frame) ||
                sourceAt(frame) != source);
      });
  return corrupted;
}

void ConfigMemory::reset() noexcept {
  runs_.erase(std::next(runs_.begin()), runs_.end());
  runs_.begin()->second = Source{};
  overlay_.clear();
  done_ = false;
  framesWritten_ = 0;
  upsets_ = 0;
}

bitstream::ParsedRef ConfigMemory::parsedFor(
    const bitstream::Bitstream& stream) const {
  return bitstream::parse(stream, *device_);
}

}  // namespace prtr::config
