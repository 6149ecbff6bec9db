#ifndef ECOCHARGE_CORE_DYNAMIC_CACHE_H_
#define ECOCHARGE_CORE_DYNAMIC_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/simtime.h"
#include "core/cknn_ec.h"
#include "energy/charger.h"
#include "geo/point.h"

namespace ecocharge {

/// \brief Tuning of the solution-level Dynamic Caching (Section IV-C).
struct DynamicCacheOptions {
  /// Q: if the vehicle moved less than this since the cached solution was
  /// generated, the solution is adapted instead of regenerated.
  double q_distance_m = 5000.0;

  /// Temporal validity: L/A/D estimates go stale after this long
  /// regardless of movement (the paper's caching hypothesis).
  double ttl_s = 15.0 * kSecondsPerMinute;
};

/// \brief Bottom-up solution cache for EcoCharge.
///
/// Stores the scored candidate set (the solved sub-problems) behind the
/// last Offering Table. While the vehicle stays within Q of the cache
/// anchor and the entry is fresh, the solution is adapted: the cached L/A
/// estimates are kept as-is (they may be slightly stale — the accuracy
/// cost the paper's Q-opt experiment measures) and only the derouting
/// component is revised for the new position — O_1 adapted into O_2
/// without re-running the spatial filter or the forecast fetches.
class DynamicCache {
 public:
  explicit DynamicCache(const DynamicCacheOptions& options);

  /// The cached scored candidates if reusable at (position, now), else
  /// nullptr. Counts a hit or miss either way.
  const std::vector<ScoredCandidate>* TryReuse(const Point& position,
                                               SimTime now);

  /// Replaces the cached solution, anchored at (position, now). Copies
  /// into the existing cache storage, so steady-state stores reuse its
  /// capacity instead of allocating.
  void Store(const Point& position, SimTime now,
             const std::vector<ScoredCandidate>& candidates);

  /// Drops the cached solution (trip changed, settings changed). Keeps
  /// the candidate storage so a later Store() reuses its capacity.
  void Clear();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  double HitRate() const {
    uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }
  const DynamicCacheOptions& options() const { return options_; }

 private:
  DynamicCacheOptions options_;
  bool has_solution_ = false;
  Point anchor_;
  SimTime stored_at_ = 0.0;
  std::vector<ScoredCandidate> candidates_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_DYNAMIC_CACHE_H_
