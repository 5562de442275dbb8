#include "exec/artifact_cache.hpp"

#include <bit>
#include <utility>

#include "obs/host.hpp"

namespace prtr::exec {
namespace {

/// Disjoint key salts per artifact type, so a bitstream and a floorplan
/// whose KeyBuilder inputs collide still occupy distinct cache slots.
constexpr std::uint64_t kBitstreamSalt = 0x5842462D42495453ull;  // "XBF-BITS"
constexpr std::uint64_t kFloorplanSalt = 0x464C4F4F52504C4Eull;  // "FLOORPLN"

/// Resident byte estimate of one bitstream: encoded bytes plus the handle
/// and header bookkeeping.
std::uint64_t bitstreamBytes(const bitstream::Bitstream& stream) {
  return stream.bytes().size() + sizeof(bitstream::Bitstream);
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

KeyBuilder& KeyBuilder::add(std::uint64_t value) noexcept {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  crc_.update(bytes);
  fed_ += 8;
  return *this;
}

KeyBuilder& KeyBuilder::add(std::string_view text) noexcept {
  crc_.update({reinterpret_cast<const std::uint8_t*>(text.data()),
               text.size()});
  fed_ += text.size();
  // Length separator: "ab" + "c" must not alias "a" + "bc".
  return add(static_cast<std::uint64_t>(text.size()));
}

KeyBuilder& KeyBuilder::add(double value) noexcept {
  return add(std::bit_cast<std::uint64_t>(value));
}

std::uint64_t KeyBuilder::value() const noexcept {
  return (static_cast<std::uint64_t>(crc_.value()) << 32) |
         (fed_ & 0xFFFFFFFFull);
}

ArtifactCache::ArtifactCache(std::uint64_t byteBudget)
    : byteBudget_(byteBudget) {}

std::shared_ptr<const void> ArtifactCache::getOrBuild(Key key,
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
    const auto hit = entries_.find(key);
    if (hit != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, hit->second.lruPosition);
      auto artifact = hit->second.artifact;
      if (observer != nullptr) {
        observer->access(key, "exec.cache.entry", /*write=*/false);
        observer->release(mutexSync);
      }
      lock.unlock();
      return artifact;
    }
    const auto pending = inflight_.find(key);
    if (pending != inflight_.end()) {
      flight = pending->second;  // someone else is building: wait below
    } else {
      ++stats_.misses;
      flight = std::make_shared<Inflight>();
      inflight_.emplace(key, flight);
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
      observer->access(key, "exec.cache.entry", /*write=*/false);
      observer->release(mutexSync);
    }
    return flight->artifact;
  }

  std::shared_ptr<const void> artifact;
  std::uint64_t artifactBytes = 0;
  std::exception_ptr failure;
  try {
    static const obs::HistogramId kBuildNs =
        obs::MetricTable::global().histogram("host.exec.cache.build_ns");
    const obs::HostTimer timer{kBuildNs};
    std::tie(artifact, artifactBytes) = build();
  } catch (...) {
    failure = std::current_exception();
  }

  std::uint64_t residentBytes = 0;
  {
    const std::scoped_lock lock{mutex_};
    if (observer != nullptr) observer->acquire(mutexSync);
    inflight_.erase(key);
    if (!failure) {
      if (observer != nullptr) {
        observer->access(key, "exec.cache.entry", /*write=*/true);
      }
      lru_.push_front(key);
      entries_.emplace(key, Entry{artifact, artifactBytes, lru_.begin()});
      bytes_ += artifactBytes;
      evictOverBudgetLocked();
    }
    residentBytes = bytes_;
    if (observer != nullptr) observer->release(mutexSync);
  }
  if (!failure) {
    static const obs::HistogramId kBytes =
        obs::MetricTable::global().histogram("host.exec.cache.bytes");
    obs::hostMetrics().observe(kBytes, static_cast<std::int64_t>(residentBytes));
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
    const Key victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    ++stats_.evictions;
    if (observer != nullptr) {
      observer->access(victim, "exec.cache.entry", /*write=*/true);
    }
  }
}

std::shared_ptr<const bitstream::Bitstream> ArtifactCache::bitstream(
    Key key, const std::function<bitstream::Bitstream()>& build) {
  auto erased = getOrBuild(key ^ kBitstreamSalt, [&] {
    auto stream = std::make_shared<const bitstream::Bitstream>(build());
    const std::uint64_t size = bitstreamBytes(*stream);
    return std::pair<std::shared_ptr<const void>, std::uint64_t>{
        std::move(stream), size};
  });
  return std::static_pointer_cast<const bitstream::Bitstream>(erased);
}

std::shared_ptr<const fabric::Floorplan> ArtifactCache::floorplan(
    Key key, const std::function<fabric::Floorplan()>& build) {
  auto erased = getOrBuild(key ^ kFloorplanSalt, [&] {
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
    for (const auto& [key, entry] : entries_) {
      observer->access(key, "exec.cache.entry", /*write=*/true);
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
  struct Ids {
    obs::CounterId hits, misses, evictions, bytes, entries;
    obs::GaugeId hitRate;
  };
  static const Ids kIds = [] {
    obs::MetricTable& t = obs::MetricTable::global();
    return Ids{t.counter("exec.cache.hits"),    t.counter("exec.cache.misses"),
               t.counter("exec.cache.evictions"), t.counter("exec.cache.bytes"),
               t.counter("exec.cache.entries"),  t.gauge("exec.cache.hit_rate")};
  }();
  const Stats stats = this->stats();
  obs::Registry reg;
  reg.add(kIds.hits, stats.hits);
  reg.add(kIds.misses, stats.misses);
  reg.add(kIds.evictions, stats.evictions);
  reg.add(kIds.bytes, stats.bytes);
  reg.add(kIds.entries, stats.entries);
  reg.set(kIds.hitRate, stats.hitRate());
  return reg.takeSnapshot();
}

ArtifactCache& ArtifactCache::global() {
  static ArtifactCache cache;
  return cache;
}

bitstream::StreamSource cachingStreamSource(ArtifactCache& cache) {
  return [&cache](const bitstream::StreamKey& key,
                  const std::function<bitstream::Bitstream()>& build) {
    return cache.bitstream(key.hash(), build);
  };
}

}  // namespace prtr::exec
