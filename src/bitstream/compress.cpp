#include "bitstream/compress.hpp"

#include <memory>
#include <set>

#include "bitstream/parser.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {
namespace {

// ZRL token grammar:
//   0x00 <count>            run of <count>+1 zero bytes (count 0..254)
//   0x00 0xFF <lo> <hi>     run of 256..65535+256 zeros (little endian,
//                           value stored minus 256)
//   0x01 <count> <bytes...> literal block of <count>+1 bytes (count 0..254)
constexpr std::uint8_t kZeroRun = 0x00;
constexpr std::uint8_t kLiteral = 0x01;
constexpr std::size_t kMaxShortRun = 255;        // encoded as count+1
constexpr std::size_t kMaxLongRun = 65535 + 256;
constexpr std::size_t kMaxLiteral = 255;
// Zero runs shorter than this ride inside literals: a run token costs two
// bytes, so breaking a literal is only worth it for longer runs.
constexpr std::size_t kMinRun = 4;

}  // namespace

std::vector<std::uint8_t> zrlCompress(std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> out;
  out.reserve(data.size() / 2 + 16);

  std::vector<std::uint8_t> literal;
  auto flushLiteral = [&] {
    std::size_t at = 0;
    while (at < literal.size()) {
      const std::size_t len = std::min(kMaxLiteral, literal.size() - at);
      out.push_back(kLiteral);
      out.push_back(static_cast<std::uint8_t>(len - 1));
      out.insert(out.end(), literal.begin() + static_cast<std::ptrdiff_t>(at),
                 literal.begin() + static_cast<std::ptrdiff_t>(at + len));
      at += len;
    }
    literal.clear();
  };

  std::size_t i = 0;
  while (i < data.size()) {
    if (data[i] == 0) {
      std::size_t run = 0;
      while (i + run < data.size() && data[i + run] == 0 && run < kMaxLongRun) {
        ++run;
      }
      if (run < kMinRun) {
        literal.insert(literal.end(), run, 0);  // too short to tokenize
      } else {
        flushLiteral();
        if (run <= kMaxShortRun) {
          out.push_back(kZeroRun);
          out.push_back(static_cast<std::uint8_t>(run - 1));
        } else {
          const std::size_t stored = run - 256;
          out.push_back(kZeroRun);
          out.push_back(0xFF);
          out.push_back(static_cast<std::uint8_t>(stored));
          out.push_back(static_cast<std::uint8_t>(stored >> 8));
        }
      }
      i += run;
    } else {
      literal.push_back(data[i++]);
    }
  }
  flushLiteral();
  return out;
}

std::vector<std::uint8_t> zrlDecompress(std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> out;
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint8_t tag = data[i++];
    if (tag == kZeroRun) {
      if (i >= data.size()) throw util::BitstreamError{"ZRL: truncated run"};
      const std::uint8_t count = data[i++];
      if (count == 0xFF) {
        if (i + 2 > data.size()) throw util::BitstreamError{"ZRL: truncated long run"};
        const std::size_t stored = static_cast<std::size_t>(data[i]) |
                                   static_cast<std::size_t>(data[i + 1]) << 8;
        i += 2;
        out.insert(out.end(), stored + 256, 0);
      } else {
        out.insert(out.end(), static_cast<std::size_t>(count) + 1, 0);
      }
    } else if (tag == kLiteral) {
      if (i >= data.size()) throw util::BitstreamError{"ZRL: truncated literal"};
      const std::size_t len = static_cast<std::size_t>(data[i++]) + 1;
      if (i + len > data.size()) {
        throw util::BitstreamError{"ZRL: literal overruns input"};
      }
      out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(i),
                 data.begin() + static_cast<std::ptrdiff_t>(i + len));
      i += len;
    } else {
      throw util::BitstreamError{"ZRL: unknown token"};
    }
  }
  return out;
}

double zrlRatio(std::span<const std::uint8_t> data) {
  if (data.empty()) return 1.0;
  return static_cast<double>(zrlCompress(data).size()) /
         static_cast<double>(data.size());
}

MfwPlan planMfw(const Bitstream& stream, const fabric::Device& device) {
  if (!stream.isPartial()) {
    throw util::BitstreamError{"planMfw: MFW applies to partial streams"};
  }
  const ParsedRef parsed = parse(stream, device);
  if (const MfwPlan* memo = parsed->mfw.get()) return *memo;
  const auto& enc = device.geometry().encoding();

  auto plan = std::make_unique<MfwPlan>();
  plan->totalFrames = parsed->header.frameCount;
  plan->rawBytes = stream.size();

  // Group frames by payload content.
  std::set<std::vector<std::uint8_t>> payloads;
  parsed->forEachPayload(
      [&payloads](std::uint32_t, std::span<const std::uint8_t> payload) {
        payloads.emplace(payload.begin(), payload.end());
      });
  plan->uniqueFrames = static_cast<std::uint32_t>(payloads.size());
  plan->wireBytes = util::Bytes{
      enc.partialOverheadBytes +
      static_cast<std::uint64_t>(plan->uniqueFrames) * enc.frameBytes +
      static_cast<std::uint64_t>(plan->totalFrames) * enc.frameAddressBytes};
  return parsed->mfw.publish(std::move(plan));
}

util::Time mfwDrainTime(const MfwPlan& plan, util::Time payloadTimePerFrame,
                        util::Time addressTime) {
  return payloadTimePerFrame * static_cast<std::int64_t>(plan.uniqueFrames) +
         addressTime * static_cast<std::int64_t>(plan.totalFrames);
}

}  // namespace prtr::bitstream
