#include "exec/artifact_cache.hpp"

#include <bit>
#include <utility>

#include "obs/host.hpp"

namespace prtr::exec {
namespace {

/// Artifact-type tags in front of every slot, so a bitstream and a
/// floorplan whose KeyBuilder inputs match still occupy distinct slots.
constexpr char kBitstreamTag = 'B';
constexpr char kFloorplanTag = 'F';

/// Race-checker object id of one slot.
std::uint64_t objectId(const ArtifactCache::Key& slot) {
  return std::hash<ArtifactCache::Key>{}(slot);
}

/// Floorplans carry no frame payloads; estimate per-region/bus-macro
/// bookkeeping so the budget still sees them.
std::uint64_t floorplanBytes(const fabric::Floorplan& plan) {
  return sizeof(fabric::Floorplan) +
         plan.prrs().size() * (sizeof(fabric::Region) + 64) +
         plan.busMacros().size() * sizeof(fabric::BusMacro) +
         plan.device().geometry().columnCount() * sizeof(fabric::ColumnSpec);
}

}  // namespace

KeyBuilder& KeyBuilder::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>(value >> (8 * i)));
  }
  return *this;
}

KeyBuilder& KeyBuilder::add(std::string_view text) {
  bytes_.append(text);
  // Length separator: "ab" + "c" must not alias "a" + "bc".
  return add(static_cast<std::uint64_t>(text.size()));
}

KeyBuilder& KeyBuilder::add(double value) {
  return add(std::bit_cast<std::uint64_t>(value));
}

ArtifactCache::ArtifactCache(std::uint64_t byteBudget)
    : byteBudget_(byteBudget) {}

std::shared_ptr<const void> ArtifactCache::getOrBuild(const Key& slot,
                                                      const ErasedBuild& build) {
  RaceObserver* observer = raceObserver_.load(std::memory_order_acquire);
  // mutex_ and each Inflight latch are modeled as sync objects so the
  // detector sees the same hand-offs the real locks provide; removing a
  // lock here without removing its acquire/release edge would surface as
  // an RC diagnostic in the cache race tests.
  const auto mutexSync = reinterpret_cast<std::uint64_t>(&mutex_);
  std::shared_ptr<Inflight> flight;
  bool builder = false;
  {
    std::unique_lock lock{mutex_};
    if (observer != nullptr) observer->acquire(mutexSync);
    const auto hit = entries_.find(slot);
    if (hit != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, hit->second.lruPosition);
      auto artifact = hit->second.artifact;
      if (observer != nullptr) {
        observer->access(objectId(slot), "exec.cache.entry", /*write=*/false);
        observer->release(mutexSync);
      }
      lock.unlock();
      return artifact;
    }
    const auto pending = inflight_.find(slot);
    if (pending != inflight_.end()) {
      flight = pending->second;  // someone else is building: wait below
    } else {
      ++stats_.misses;
      flight = std::make_shared<Inflight>();
      inflight_.emplace(slot, flight);
      builder = true;
    }
    if (observer != nullptr) observer->release(mutexSync);
  }
  const auto flightSync = reinterpret_cast<std::uint64_t>(flight.get());

  if (!builder) {
    std::unique_lock wait{flight->mutex};
    flight->done.wait(wait, [&] { return flight->finished; });
    // Latch departure: adopt everything the builder did before it
    // published the artifact.
    if (observer != nullptr) observer->acquire(flightSync);
    if (flight->failure) std::rethrow_exception(flight->failure);
    // A waiter counts as a hit: the artifact was not rebuilt for it.
    const std::scoped_lock lock{mutex_};
    if (observer != nullptr) observer->acquire(mutexSync);
    ++stats_.hits;
    if (observer != nullptr) {
      observer->access(objectId(slot), "exec.cache.entry", /*write=*/false);
      observer->release(mutexSync);
    }
    return flight->artifact;
  }

  std::shared_ptr<const void> artifact;
  std::uint64_t artifactBytes = 0;
  std::exception_ptr failure;
  try {
    const obs::HostTimer timer{"host.exec.cache.build_ns"};
    std::tie(artifact, artifactBytes) = build();
  } catch (...) {
    failure = std::current_exception();
  }

  std::uint64_t residentBytes = 0;
  {
    const std::scoped_lock lock{mutex_};
    if (observer != nullptr) observer->acquire(mutexSync);
    inflight_.erase(slot);
    if (!failure) {
      if (observer != nullptr) {
        observer->access(objectId(slot), "exec.cache.entry", /*write=*/true);
      }
      lru_.push_front(slot);
      entries_.emplace(slot, Entry{artifact, artifactBytes, lru_.begin()});
      bytes_ += artifactBytes;
      evictOverBudgetLocked();
    }
    residentBytes = bytes_;
    if (observer != nullptr) observer->release(mutexSync);
  }
  if (!failure) {
    obs::hostMetrics().observe("host.exec.cache.bytes",
                               static_cast<std::int64_t>(residentBytes));
  }
  {
    const std::scoped_lock lock{flight->mutex};
    flight->finished = true;
    flight->artifact = artifact;
    flight->failure = failure;
    // Latch publication: waiters acquire flightSync after the wait.
    if (observer != nullptr) observer->release(flightSync);
  }
  flight->done.notify_all();
  if (failure) std::rethrow_exception(failure);
  return artifact;
}

void ArtifactCache::evictOverBudgetLocked() {
  RaceObserver* observer = raceObserver_.load(std::memory_order_acquire);
  while (bytes_ > byteBudget_ && !lru_.empty()) {
    const auto it = entries_.find(lru_.back());
    if (observer != nullptr) {
      observer->access(objectId(it->first), "exec.cache.entry",
                       /*write=*/true);
    }
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const bitstream::Bitstream> ArtifactCache::bitstream(
    const Key& key, const std::function<bitstream::Bitstream()>& build) {
  auto erased = getOrBuild(kBitstreamTag + key, [&] {
    auto stream = std::make_shared<const bitstream::Bitstream>(build());
    const std::uint64_t size = stream->residentBytes();
    return std::pair<std::shared_ptr<const void>, std::uint64_t>{
        std::move(stream), size};
  });
  return std::static_pointer_cast<const bitstream::Bitstream>(erased);
}

std::shared_ptr<const fabric::Floorplan> ArtifactCache::floorplan(
    const Key& key, const std::function<fabric::Floorplan()>& build) {
  auto erased = getOrBuild(kFloorplanTag + key, [&] {
    auto plan = std::make_shared<const fabric::Floorplan>(build());
    const std::uint64_t size = floorplanBytes(*plan);
    return std::pair<std::shared_ptr<const void>, std::uint64_t>{
        std::move(plan), size};
  });
  return std::static_pointer_cast<const fabric::Floorplan>(erased);
}

void ArtifactCache::setByteBudget(std::uint64_t bytes) {
  const std::scoped_lock lock{mutex_};
  byteBudget_ = bytes;
  evictOverBudgetLocked();
}

void ArtifactCache::clear() {
  RaceObserver* observer = raceObserver_.load(std::memory_order_acquire);
  const auto mutexSync = reinterpret_cast<std::uint64_t>(&mutex_);
  const std::scoped_lock lock{mutex_};
  if (observer != nullptr) {
    observer->acquire(mutexSync);
    for (const auto& [slot, entry] : entries_) {
      observer->access(objectId(slot), "exec.cache.entry", /*write=*/true);
    }
  }
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  if (observer != nullptr) observer->release(mutexSync);
}

ArtifactCache::Stats ArtifactCache::stats() const {
  const std::scoped_lock lock{mutex_};
  Stats stats = stats_;
  stats.bytes = bytes_;
  stats.entries = entries_.size();
  return stats;
}

obs::MetricsSnapshot ArtifactCache::metricsSnapshot() const {
  const Stats stats = this->stats();
  obs::MetricsSnapshot out;
  out.counters["exec.cache.hits"] = stats.hits;
  out.counters["exec.cache.misses"] = stats.misses;
  out.counters["exec.cache.evictions"] = stats.evictions;
  out.counters["exec.cache.bytes"] = stats.bytes;
  out.counters["exec.cache.entries"] = stats.entries;
  out.gauges["exec.cache.hit_rate"] = stats.hitRate();
  return out;
}

ArtifactCache& ArtifactCache::global() {
  static ArtifactCache cache;
  return cache;
}

bitstream::StreamSource cachingStreamSource(ArtifactCache& cache) {
  return [&cache](const bitstream::StreamKey& key,
                  const std::function<bitstream::Bitstream()>& build) {
    return cache.bitstream(KeyBuilder{}
                               .add(std::uint64_t{key.deviceTag})
                               .add(std::uint64_t{key.geometryCrc})
                               .add(static_cast<std::uint64_t>(key.flow))
                               .add(std::uint64_t{key.firstFrame})
                               .add(std::uint64_t{key.frameCount})
                               .add(key.fromModule)
                               .add(key.toModule)
                               .add(key.fromOccupancy)
                               .add(key.toOccupancy)
                               .value(),
                           build);
  };
}

}  // namespace prtr::exec
