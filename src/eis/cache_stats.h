#ifndef ECOCHARGE_EIS_CACHE_STATS_H_
#define ECOCHARGE_EIS_CACHE_STATS_H_

#include <atomic>
#include <cstdint>

namespace ecocharge {

/// \brief Hit/miss counters for one cache instance (a plain value; see
/// AtomicCacheStats for the concurrent accumulator behind it).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expirations = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

/// \brief Lock-free counter cell of one cache.
///
/// Counters are advisory accounting, not synchronization: relaxed atomics
/// are sufficient, and Snapshot() materializes a consistent-enough
/// CacheStats value for reporting (individual counters are exact; the
/// triple is only approximately simultaneous under concurrency, which is
/// all hit-rate reporting needs).
class AtomicCacheStats {
 public:
  void AddHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void AddMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }
  void AddExpiration() {
    expirations_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Bulk form for batched lookups: one relaxed add per counter.
  void Add(uint64_t hits, uint64_t misses, uint64_t expirations) {
    if (hits) hits_.fetch_add(hits, std::memory_order_relaxed);
    if (misses) misses_.fetch_add(misses, std::memory_order_relaxed);
    if (expirations) {
      expirations_.fetch_add(expirations, std::memory_order_relaxed);
    }
  }

  CacheStats Snapshot() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.expirations = expirations_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> expirations_{0};
};

}  // namespace ecocharge

#endif  // ECOCHARGE_EIS_CACHE_STATS_H_
