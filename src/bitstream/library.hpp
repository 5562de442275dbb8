#pragma once
/// \file library.hpp
/// Bitstream library: holds the streams a module set needs per (region,
/// module) and accounts for the flow cost comparison of paper section 2.2 —
/// a module-based flow needs n fixed-size bitstreams per region, a
/// difference-based flow needs n(n-1) variable-size bitstreams.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/builder.hpp"
#include "fabric/floorplan.hpp"

namespace prtr::bitstream {

/// Per-flow bitstream inventory statistics.
struct FlowStats {
  std::size_t streamCount = 0;
  util::Bytes totalBytes{};
  util::Bytes minBytes{};
  util::Bytes maxBytes{};
};

/// Identity of one stream a Library needs: everything the stream's bytes
/// are a pure function of. Two sweep points on the same device, floorplan,
/// module, and flow produce byte-identical streams, so a store keyed by
/// every field (see exec::cachingStreamSource) can share them.
struct StreamKey {
  enum class Flow : std::uint8_t { kFull, kModule, kDifference };

  std::uint32_t deviceTag = 0;     ///< CRC-32 of the device name
  std::uint32_t geometryCrc = 0;   ///< CRC-32 of the frame/encoding geometry
  Flow flow = Flow::kFull;
  std::uint32_t firstFrame = 0;    ///< region base (0 for full streams)
  std::uint32_t frameCount = 0;    ///< region frames (0 for full streams)
  ModuleId fromModule = 0;         ///< difference source (0 otherwise)
  ModuleId toModule = 0;           ///< target module / full designId
  double fromOccupancy = 0.0;
  double toOccupancy = 0.0;
};

/// Pluggable stream provider: given the stream's key and a builder for it,
/// returns a shared handle (memoized by exec::cachingStreamSource, which
/// runtime::runScenario installs). An empty source means "always build".
using StreamSource = std::function<std::shared_ptr<const Bitstream>(
    const StreamKey&, const std::function<Bitstream()>&)>;

/// Holds every bitstream needed to run a module set on a floorplan.
class Library {
 public:
  /// A module to be made loadable into PRRs.
  struct ModuleSpec {
    ModuleId id = 0;
    std::string name;
    double occupancy = 1.0;  ///< fraction of region frames carrying content
  };

  /// `source`, when set, resolves every stream build (see StreamSource);
  /// unset, the library builds and owns each stream privately, once per
  /// (region, module) it is asked for.
  Library(const fabric::Floorplan& floorplan, std::vector<ModuleSpec> modules,
          StreamSource source = {});

  /// Module-based flow: builds one stream per (PRR, module).
  /// Returns aggregate stats; streams are retained for lookup.
  FlowStats buildModuleFlow();

  /// Difference-based flow: builds one stream per (PRR, from, to), from != to.
  FlowStats buildDifferenceFlow();

  /// Module-based stream for `module` in PRR `prrIndex` (built on demand).
  [[nodiscard]] const Bitstream& modulePartial(std::size_t prrIndex, ModuleId module);

  /// Difference stream switching PRR `prrIndex` from `from` to `to`
  /// (built on demand; also the unit of work of buildDifferenceFlow).
  [[nodiscard]] const Bitstream& differencePartial(std::size_t prrIndex,
                                                   ModuleId from, ModuleId to);

  /// Recovery-ladder rung: `module`'s stream rebuilt at occupancy 1.0, so
  /// every frame in the PRR is rewritten — including frames a sparse module
  /// partial would skip and leave corrupted. Shares the module partial when
  /// the module already occupies the whole region.
  [[nodiscard]] const Bitstream& prrReload(std::size_t prrIndex, ModuleId module);

  /// The full-device stream (static design + baseline PRR contents).
  [[nodiscard]] const Bitstream& full();

  [[nodiscard]] const std::vector<ModuleSpec>& modules() const noexcept {
    return modules_;
  }
  [[nodiscard]] const fabric::Floorplan& floorplan() const noexcept {
    return *floorplan_;
  }

  /// Streams a module-based flow must hold for n modules (= n per region).
  [[nodiscard]] static std::size_t moduleFlowStreams(std::size_t nModules) noexcept {
    return nModules;
  }
  /// Streams a difference-based flow must hold for n modules (= n(n-1)).
  [[nodiscard]] static std::size_t differenceFlowStreams(std::size_t nModules) noexcept {
    return nModules * (nModules - 1);
  }

 private:
  [[nodiscard]] const ModuleSpec& spec(ModuleId module) const;
  /// Key template carrying the device/geometry tags of this floorplan.
  [[nodiscard]] StreamKey keyBase() const noexcept;
  /// Resolves via source_ when set, else builds privately. Every actual
  /// stream synthesis (cache hits excluded) is timed under
  /// host.bitstream.build_ns (obs/host.hpp).
  [[nodiscard]] std::shared_ptr<const Bitstream> resolve(
      const StreamKey& key, const std::function<Bitstream()>& build);

  const fabric::Floorplan* floorplan_;
  std::vector<ModuleSpec> modules_;
  Builder builder_;
  StreamSource source_;
  std::uint32_t deviceTag_ = 0;
  std::uint32_t geometryCrc_ = 0;
  std::shared_ptr<const Bitstream> full_;
  std::map<std::pair<std::size_t, ModuleId>, std::shared_ptr<const Bitstream>>
      modulePartials_;
  std::map<std::tuple<std::size_t, ModuleId, ModuleId>,
           std::shared_ptr<const Bitstream>>
      diffPartials_;
  std::map<std::pair<std::size_t, ModuleId>, std::shared_ptr<const Bitstream>>
      prrReloads_;
};

}  // namespace prtr::bitstream
