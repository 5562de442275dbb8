#include "config/memory.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace prtr::config {

ConfigMemory::ConfigMemory(const fabric::Device& device)
    : device_(&device),
      frameOwner_(device.geometry().totalFrames(), 0),
      frameStamp_(device.geometry().totalFrames(), 0) {}

std::uint64_t ConfigMemory::frameOwner(std::uint32_t frame) const {
  util::require(frame < frameOwner_.size(), "ConfigMemory: frame out of range");
  return frameStamp_[frame] == epoch_ ? frameOwner_[frame] : baseOwner_;
}

void ConfigMemory::writeOwners(const bitstream::ParsedStream& stream) {
  const std::uint64_t owner = stream.header.moduleId;
  for (const bitstream::FrameRun& run : stream.frameRuns) {
    if (std::uint64_t{run.first} + run.count > frameOwner_.size()) {
      throw util::ConfigError{"ConfigMemory: frame run [" +
                              std::to_string(run.first) + ", +" +
                              std::to_string(run.count) +
                              ") exceeds the device's frames"};
    }
    if (run.first == 0 && run.count == frameOwner_.size()) {
      // Every frame rewritten: every stamp goes stale at once.
      baseOwner_ = owner;
      ++epoch_;
      continue;
    }
    std::fill_n(frameOwner_.begin() + run.first, run.count, owner);
    std::fill_n(frameStamp_.begin() + run.first, run.count, epoch_);
  }
}

void ConfigMemory::retainPayloads(const bitstream::ParsedStream& stream) {
  if (image_.empty()) return;
  stream.forEachPayload([this](std::uint32_t frame,
                               std::span<const std::uint8_t> payload) {
    std::copy(payload.begin(), payload.end(),
              image_.begin() +
                  static_cast<std::ptrdiff_t>(frame * payload.size()));
  });
}

void ConfigMemory::applyFull(const bitstream::ParsedStream& stream) {
  if (stream.header.type != bitstream::StreamType::kFull) {
    throw util::ConfigError{"ConfigMemory: applyFull needs a full stream"};
  }
  writeOwners(stream);
  retainPayloads(stream);
  framesWritten_ += stream.header.frameCount;
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
  writeOwners(stream);
  retainPayloads(stream);
  framesWritten_ += stream.header.frameCount;
}

void ConfigMemory::enableReadback() {
  if (!image_.empty()) return;
  image_.assign(std::uint64_t{device_->geometry().totalFrames()} *
                    device_->geometry().encoding().frameBytes,
                0);
}

std::span<const std::uint8_t> ConfigMemory::frameContent(
    std::uint32_t frame) const {
  util::require(!image_.empty(),
                "ConfigMemory: enableReadback() before reading content");
  util::require(frame < frameOwner_.size(), "ConfigMemory: frame out of range");
  const std::uint32_t frameBytes = device_->geometry().encoding().frameBytes;
  return std::span{image_.data() + std::uint64_t{frame} * frameBytes,
                   frameBytes};
}

void ConfigMemory::injectUpset(std::uint32_t frame, std::uint32_t offset,
                               std::uint8_t mask) {
  util::require(!image_.empty(),
                "ConfigMemory: enableReadback() before injecting upsets");
  util::require(frame < frameOwner_.size(), "ConfigMemory: frame out of range");
  const std::uint32_t frameBytes = device_->geometry().encoding().frameBytes;
  util::require(offset < frameBytes, "ConfigMemory: offset out of range");
  util::require(mask != 0, "ConfigMemory: empty upset mask");
  image_[std::uint64_t{frame} * frameBytes + offset] ^= mask;
  ++upsets_;
}

std::uint64_t ConfigMemory::repairFrames(
    const bitstream::ParsedStream& stream,
    const std::vector<std::uint32_t>& frames) {
  util::require(!image_.empty(),
                "ConfigMemory: enableReadback() before repairing frames");
  if (frames.empty()) return 0;
  std::vector<std::uint32_t> wanted = frames;
  std::sort(wanted.begin(), wanted.end());
  std::uint64_t repaired = 0;
  stream.forEachPayload(
      [&](std::uint32_t frame, std::span<const std::uint8_t> payload) {
        std::copy(payload.begin(), payload.end(),
                  image_.begin() +
                      static_cast<std::ptrdiff_t>(frame * payload.size()));
        ++repaired;
      },
      &wanted);
  framesWritten_ += repaired;
  return repaired;
}

void ConfigMemory::reset() noexcept {
  baseOwner_ = 0;
  ++epoch_;
  done_ = false;
  framesWritten_ = 0;
  upsets_ = 0;
  if (!image_.empty()) image_.assign(image_.size(), 0);
}

bitstream::ParsedRef ConfigMemory::parsedFor(
    const bitstream::Bitstream& stream) const {
  return bitstream::parse(stream, *device_);
}

}  // namespace prtr::config
