#ifndef ECOCHARGE_SERVER_CORRIDOR_CACHE_H_
#define ECOCHARGE_SERVER_CORRIDOR_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/offering_table.h"
#include "core/vehicle_state.h"
#include "eis/ttl_cache.h"
#include "eis/world_revisions.h"
#include "obs/metrics.h"

namespace ecocharge {

class RoadNetwork;

/// \brief Tuning of the cross-user corridor cache.
struct CorridorCacheOptions {
  /// Entry freshness horizon. Kept >= eta_bucket_s so every request in a
  /// bucket sees the entry its bucket-mates inserted.
  double ttl_s = 15.0 * kSecondsPerMinute;

  /// ETA quantization: requests whose time falls in the same bucket share
  /// one corridor entry (the paper's forecast granularity argument —
  /// vehicles minutes apart see the same L/A/D forecasts anyway).
  double eta_bucket_s = 5.0 * kSecondsPerMinute;

  /// Lock shards (rounded up to a power of two), mirroring
  /// EisOptions::cache_shards.
  size_t num_shards = 16;

  /// Per-shard entry cap; at capacity a shard drops expired entries and,
  /// if still full, clears (the corridor working set is re-derivable).
  size_t max_entries_per_shard = 1 << 14;

  /// InvalidArgument unless eta_bucket_s is finite and > 0 and ttl_s is
  /// finite and >= eta_bucket_s. Check options that come from outside
  /// (flags, config) once, before constructing the cache: KeyFor divides
  /// by the bucket width.
  Status Validate() const;
};

/// \brief Cross-user Offering Table cache keyed by corridor and ETA
/// bucket — the paper's Dynamic Caching generalized across vehicles.
///
/// Per-trip Dynamic Caching reuses solved sub-problems across *time* for
/// one vehicle; a fleet serving millions of concurrent trips sees many
/// vehicles on the same road segment with overlapping ETAs, whose
/// candidate sets and estimated components are near-identical. This cache
/// computes the Offering Table once per (corridor signature, ETA bucket,
/// world epoch) and copies it out to every bucket-mate.
///
/// Canonicality is the correctness keystone: a cached table is the table
/// of the *canonical anchor state* of its key — time snapped to the
/// bucket start, position snapped to the network node, trip identity
/// zeroed — ranked fresh with per-client caching disabled. The stored
/// value is therefore a pure function of (key, world revisions): any
/// worker that misses computes the identical bytes, so first-writer-wins
/// insertion is race-free by value and threaded serving stays
/// bit-identical to inline serving.
///
/// World revisions are folded into the key, so an epoch publish makes the
/// previous epoch's corridors unreachable (they age out by TTL) without
/// any sweep or reader stall.
class CorridorCache {
 public:
  /// \param network the road graph, for node -> position canonicalization
  ///   (borrowed, must outlive the cache).
  CorridorCache(const RoadNetwork* network,
                const CorridorCacheOptions& options);

  /// The corridor key of `state` under `revisions`: a 64-bit mix of the
  /// snapped node, the segment's return nodes, k, the charge-window bits,
  /// the ETA bucket, and the three upstream revisions.
  uint64_t KeyFor(const VehicleState& state, size_t k,
                  const WorldRevisions& revisions) const;

  /// The canonical anchor state every key-mate shares: time floored to
  /// the bucket start, position moved to the snapped node, trip identity
  /// (trip_id, segment_index) zeroed. Ranking this state fresh yields the
  /// exact bytes stored under KeyFor(state, ...).
  VehicleState CanonicalState(const VehicleState& state) const;

  /// On a fresh hit, copies the cached table into `*out` (reusing its
  /// entry capacity — allocation-free once `*out` reached its high-water
  /// size) and returns true. Counts a hit or miss either way.
  bool GetInto(uint64_t key, SimTime now, OfferingTable* out);

  /// Inserts/overwrites the canonical table for `key`. Concurrent
  /// duplicate inserts are benign: every writer computed the same bytes.
  void Put(uint64_t key, const OfferingTable& table, SimTime now);

  CacheStats stats() const;
  uint64_t inserts() const {
    return inserts_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  const CorridorCacheOptions& options() const { return options_; }

  /// Mirrors hit/miss/insert counts onto `registry` under
  /// `server.corridor.*`; null detaches. Wire before traffic starts.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    OfferingTable table;
    SimTime inserted_at = 0.0;
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
  };

  Shard& ShardFor(uint64_t key) {
    return shards_[key & (shards_.size() - 1)];
  }

  const RoadNetwork* network_;
  CorridorCacheOptions options_;
  std::vector<Shard> shards_;

  AtomicCacheStats stats_;
  std::atomic<uint64_t> inserts_{0};
  obs::Counter* hits_mirror_ = nullptr;
  obs::Counter* misses_mirror_ = nullptr;
  obs::Counter* inserts_mirror_ = nullptr;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_SERVER_CORRIDOR_CACHE_H_
