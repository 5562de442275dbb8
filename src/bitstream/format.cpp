#include "bitstream/format.hpp"

#include <span>

#include "bitstream/builder.hpp"
#include "obs/host.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {

const char* toString(StreamType type) noexcept {
  switch (type) {
    case StreamType::kFull: return "full";
    case StreamType::kPartial: return "partial";
  }
  return "?";
}

const std::vector<std::uint8_t>& Bitstream::bytes() const {
  if (!recipe_) return bytes_;
  if (const std::vector<std::uint8_t>* done = materialized_.get()) return *done;
  const std::uint32_t expected = crc();
  const obs::HostTimer timer{"host.bitstream.materialize_ns"};
  return materialized_.publish(
      std::make_unique<const std::vector<std::uint8_t>>(
          detail::materialize(header_, *recipe_, expected)));
}

std::uint32_t Bitstream::crc() const {
  if (!recipe_) {
    if (bytes_.size() < 4) {
      throw util::BitstreamError{"XBF: stream too short for its CRC trailer"};
    }
    const std::uint8_t* trailer = bytes_.data() + bytes_.size() - 4;
    return std::uint32_t{trailer[0]} | std::uint32_t{trailer[1]} << 8 |
           std::uint32_t{trailer[2]} << 16 | std::uint32_t{trailer[3]} << 24;
  }
  if (recipe_->crc) return *recipe_->crc;
  if (const std::uint32_t* done = crc_.get()) return *done;
  const obs::HostTimer timer{"host.bitstream.materialize_ns"};
  return crc_.publish(std::make_unique<const std::uint32_t>(
      detail::synthesizeCrc(header_, *recipe_)));
}

util::Bytes Bitstream::size() const noexcept {
  if (!recipe_) return util::Bytes{bytes_.size()};
  const std::uint64_t stride = std::uint64_t{header_.frameBytes} +
                               (isPartial() ? kFrameAddressBytes : 0);
  return util::Bytes{recipe_->headerBytes + header_.frameCount * stride + 4};
}

std::uint64_t Bitstream::residentBytes() const noexcept {
  std::uint64_t bytes = sizeof(Bitstream) + bytes_.size();
  if (recipe_) {
    bytes += recipe_->runs.size() * sizeof(FrameRun);
    if (materialized_.get() != nullptr) bytes += size().count();
  }
  return bytes;
}

std::uint32_t deviceTag(const std::string& deviceName) noexcept {
  return util::Crc32::of(std::span{
      reinterpret_cast<const std::uint8_t*>(deviceName.data()), deviceName.size()});
}

}  // namespace prtr::bitstream
