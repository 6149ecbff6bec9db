#include "server/corridor_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "graph/road_network.h"

namespace ecocharge {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// ~100 m grid, for the (unusual) case of a state with no snapped node:
// the key must still quantize so corridor-mates land on one entry.
uint64_t QuantizeCoord(double c) {
  return static_cast<uint64_t>(
      static_cast<int64_t>(std::floor(c / 100.0)));
}

}  // namespace

Status CorridorCacheOptions::Validate() const {
  if (!std::isfinite(eta_bucket_s) || eta_bucket_s <= 0.0) {
    return Status::InvalidArgument(
        "corridor ETA bucket must be a finite number of seconds > 0");
  }
  if (!std::isfinite(ttl_s) || ttl_s < eta_bucket_s) {
    return Status::InvalidArgument(
        "corridor TTL must be finite and at least the ETA bucket");
  }
  return Status::OK();
}

CorridorCache::CorridorCache(const RoadNetwork* network,
                             const CorridorCacheOptions& options)
    : network_(network),
      options_(options),
      shards_(RoundUpPow2(std::max<size_t>(1, options.num_shards))) {}

uint64_t CorridorCache::KeyFor(const VehicleState& state, size_t k,
                               const WorldRevisions& revisions) const {
  uint64_t eta_bucket = static_cast<uint64_t>(
      std::max(0.0, state.time) / options_.eta_bucket_s);
  uint64_t h = 0x8C9A1E7B5D3F2A41ULL;
  if (state.node != kInvalidNode) {
    h = Mix(h, state.node + 1);
  } else {
    h = Mix(h, QuantizeCoord(state.position.x));
    h = Mix(h, QuantizeCoord(state.position.y));
  }
  h = Mix(h, static_cast<uint64_t>(state.return_node_a) + 1);
  h = Mix(h, static_cast<uint64_t>(state.return_node_b) + 1);
  h = Mix(h, eta_bucket);
  h = Mix(h, k);
  h = Mix(h, DoubleBits(state.charge_window_s));
  h = Mix(h, revisions.weather + 1);
  h = Mix(h, revisions.availability + 1);
  h = Mix(h, revisions.traffic + 1);
  return h;
}

VehicleState CorridorCache::CanonicalState(const VehicleState& state) const {
  VehicleState anchor = state;
  anchor.time = std::floor(std::max(0.0, state.time) / options_.eta_bucket_s) *
                options_.eta_bucket_s;
  if (network_ != nullptr && state.node != kInvalidNode &&
      state.node < network_->NumNodes()) {
    anchor.position = network_->NodePosition(state.node);
  }
  // The trip identity must not leak into the shared table: every
  // bucket-mate receives the same canonical bytes no matter which vehicle
  // populated the entry.
  anchor.trip_id = 0;
  anchor.segment_index = 0;
  return anchor;
}

bool CorridorCache::GetInto(uint64_t key, SimTime now, OfferingTable* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    stats_.AddMiss();
    if (misses_mirror_) misses_mirror_->Add();
    return false;
  }
  // Same pinned boundary as TtlCache: age == ttl is still a hit. Negative
  // age (an entry from this key's future — only possible across replayed
  // sim clocks) is stale.
  double age = now - it->second.inserted_at;
  if (age > options_.ttl_s || age < 0.0) {
    stats_.AddExpiration();
    stats_.AddMiss();
    if (misses_mirror_) misses_mirror_->Add();
    shard.entries.erase(it);
    return false;
  }
  const OfferingTable& cached = it->second.table;
  out->generated_at = cached.generated_at;
  out->location = cached.location;
  out->segment_index = cached.segment_index;
  out->adapted_from_cache = cached.adapted_from_cache;
  out->degraded = cached.degraded;
  out->entries.assign(cached.entries.begin(), cached.entries.end());
  stats_.AddHit();
  if (hits_mirror_) hits_mirror_->Add();
  return true;
}

void CorridorCache::Put(uint64_t key, const OfferingTable& table,
                        SimTime now) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.size() >= options_.max_entries_per_shard &&
      shard.entries.find(key) == shard.entries.end()) {
    // Drop expired entries first; if the shard is still full the whole
    // working set is live — clear it (every entry is re-derivable).
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      double age = now - it->second.inserted_at;
      if (age > options_.ttl_s || age < 0.0) {
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
    if (shard.entries.size() >= options_.max_entries_per_shard) {
      shard.entries.clear();
    }
  }
  Entry& entry = shard.entries[key];
  entry.table.generated_at = table.generated_at;
  entry.table.location = table.location;
  entry.table.segment_index = table.segment_index;
  entry.table.adapted_from_cache = table.adapted_from_cache;
  entry.table.degraded = table.degraded;
  entry.table.entries.assign(table.entries.begin(), table.entries.end());
  entry.inserted_at = now;
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (inserts_mirror_) inserts_mirror_->Add();
}

CacheStats CorridorCache::stats() const { return stats_.Snapshot(); }

size_t CorridorCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

void CorridorCache::AttachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    hits_mirror_ = nullptr;
    misses_mirror_ = nullptr;
    inserts_mirror_ = nullptr;
    return;
  }
  hits_mirror_ = registry->GetCounter("server.corridor.hits", "lookups");
  misses_mirror_ = registry->GetCounter("server.corridor.misses", "lookups");
  inserts_mirror_ = registry->GetCounter("server.corridor.inserts", "tables");
}

}  // namespace ecocharge
