#include "bitstream/library.hpp"

#include <algorithm>
#include <tuple>

#include "obs/host.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {
namespace {

void accumulate(FlowStats& stats, const Bitstream& stream) {
  const util::Bytes size = stream.size();
  if (stats.streamCount == 0) {
    stats.minBytes = stats.maxBytes = size;
  } else {
    stats.minBytes = std::min(stats.minBytes, size);
    stats.maxBytes = std::max(stats.maxBytes, size);
  }
  ++stats.streamCount;
  stats.totalBytes += size;
}

void feed(util::Crc32& crc, std::uint64_t value) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  crc.update(bytes);
}

/// CRC-32 of everything stream sizes/content depend on: rows, per-column
/// kind/frame layout, and the encoding constants.
std::uint32_t geometryCrc(const fabric::DeviceGeometry& geometry) {
  util::Crc32 crc;
  feed(crc, geometry.rows());
  for (const fabric::ColumnSpec& column : geometry.columns()) {
    feed(crc, static_cast<std::uint64_t>(column.kind));
    feed(crc, column.frames);
  }
  const fabric::DeviceGeometry::Encoding& enc = geometry.encoding();
  feed(crc, enc.frameBytes);
  feed(crc, enc.fullOverheadBytes);
  feed(crc, enc.partialOverheadBytes);
  feed(crc, enc.frameAddressBytes);
  return crc.value();
}

}  // namespace

Library::Library(const fabric::Floorplan& floorplan,
                 std::vector<ModuleSpec> modules, StreamSource source)
    : floorplan_(&floorplan),
      modules_(std::move(modules)),
      builder_(floorplan.device()),
      source_(std::move(source)),
      deviceTag_(deviceTag(floorplan.device().name())),
      geometryCrc_(geometryCrc(floorplan.device().geometry())) {
  util::require(!modules_.empty(), "Library: need at least one module");
  for (const ModuleSpec& m : modules_) {
    util::require(m.id != 0, "Library: module id 0 is reserved for the baseline");
  }
}

const Library::ModuleSpec& Library::spec(ModuleId module) const {
  const auto it = std::find_if(modules_.begin(), modules_.end(),
                               [&](const ModuleSpec& m) { return m.id == module; });
  util::require(it != modules_.end(), "Library: unknown module id");
  return *it;
}

StreamKey Library::keyBase() const noexcept {
  StreamKey key;
  key.deviceTag = deviceTag_;
  key.geometryCrc = geometryCrc_;
  return key;
}

std::shared_ptr<const Bitstream> Library::resolve(
    const StreamKey& key, const std::function<Bitstream()>& build) {
  // Time actual synthesis only: a memoizing source that hits its cache
  // never invokes the builder, so no timer opens for it.
  static const obs::HistogramId kBuildNs =
      obs::MetricTable::global().histogram("host.bitstream.build_ns");
  const std::function<Bitstream()> timed = [&build] {
    const obs::HostTimer timer{kBuildNs};
    return build();
  };
  if (source_) return source_(key, timed);
  return std::make_shared<const Bitstream>(timed());
}

FlowStats Library::buildModuleFlow() {
  FlowStats stats;
  for (std::size_t prr = 0; prr < floorplan_->prrCount(); ++prr) {
    for (const ModuleSpec& m : modules_) {
      accumulate(stats, modulePartial(prr, m.id));
    }
  }
  return stats;
}

FlowStats Library::buildDifferenceFlow() {
  FlowStats stats;
  for (std::size_t prr = 0; prr < floorplan_->prrCount(); ++prr) {
    for (const ModuleSpec& from : modules_) {
      for (const ModuleSpec& to : modules_) {
        if (from.id == to.id) continue;
        accumulate(stats, differencePartial(prr, from.id, to.id));
      }
    }
  }
  return stats;
}

const Bitstream& Library::differencePartial(std::size_t prrIndex,
                                            ModuleId from, ModuleId to) {
  util::require(from != to, "Library: difference stream needs distinct modules");
  const auto mapKey = std::make_tuple(prrIndex, from, to);
  auto it = diffPartials_.find(mapKey);
  if (it == diffPartials_.end()) {
    const ModuleSpec& fromSpec = spec(from);
    const ModuleSpec& toSpec = spec(to);
    const fabric::Region& region = floorplan_->prr(prrIndex);
    const fabric::FrameRange frames = region.frames(floorplan_->device());
    StreamKey key = keyBase();
    key.flow = StreamKey::Flow::kDifference;
    key.firstFrame = frames.first;
    key.frameCount = frames.count;
    key.fromModule = fromSpec.id;
    key.toModule = toSpec.id;
    key.fromOccupancy = fromSpec.occupancy;
    key.toOccupancy = toSpec.occupancy;
    auto build = [&] {
      return builder_.buildDifferencePartial(region, fromSpec.id,
                                             fromSpec.occupancy, toSpec.id,
                                             toSpec.occupancy);
    };
    it = diffPartials_.emplace(mapKey, resolve(key, build)).first;
  }
  return *it->second;
}

const Bitstream& Library::prrReload(std::size_t prrIndex, ModuleId module) {
  const ModuleSpec& m = spec(module);
  if (m.occupancy >= 1.0) return modulePartial(prrIndex, module);
  const auto mapKey = std::make_pair(prrIndex, module);
  auto it = prrReloads_.find(mapKey);
  if (it == prrReloads_.end()) {
    const fabric::Region& region = floorplan_->prr(prrIndex);
    const fabric::FrameRange frames = region.frames(floorplan_->device());
    StreamKey key = keyBase();
    key.flow = StreamKey::Flow::kModule;
    key.firstFrame = frames.first;
    key.frameCount = frames.count;
    key.toModule = m.id;
    key.toOccupancy = 1.0;  // rewrite every frame in the region
    auto build = [&] {
      return builder_.buildModulePartial(region, m.id, /*occupancy=*/1.0);
    };
    it = prrReloads_.emplace(mapKey, resolve(key, build)).first;
  }
  return *it->second;
}

const Bitstream& Library::modulePartial(std::size_t prrIndex, ModuleId module) {
  const auto mapKey = std::make_pair(prrIndex, module);
  auto it = modulePartials_.find(mapKey);
  if (it == modulePartials_.end()) {
    const ModuleSpec& m = spec(module);
    const fabric::Region& region = floorplan_->prr(prrIndex);
    const fabric::FrameRange frames = region.frames(floorplan_->device());
    StreamKey key = keyBase();
    key.flow = StreamKey::Flow::kModule;
    key.firstFrame = frames.first;
    key.frameCount = frames.count;
    key.toModule = m.id;
    key.toOccupancy = m.occupancy;
    auto build = [&] {
      return builder_.buildModulePartial(region, m.id, m.occupancy);
    };
    it = modulePartials_.emplace(mapKey, resolve(key, build)).first;
  }
  return *it->second;
}

const Bitstream& Library::full() {
  if (!full_) {
    StreamKey key = keyBase();
    key.flow = StreamKey::Flow::kFull;
    key.toModule = 1;  // designId of the static + baseline design
    full_ = resolve(key, [&] { return builder_.buildFull(/*designId=*/1); });
  }
  return *full_;
}

}  // namespace prtr::bitstream
