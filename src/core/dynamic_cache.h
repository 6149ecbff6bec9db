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
/// Stores the adapted Offering Table of the last fresh request: the at
/// most k candidates eq. 6 selects from that request's scored pool at
/// pool = k, without exact-derouting refinement, best first, plus that k.
/// While the vehicle stays within Q of the cache anchor and the entry is
/// fresh, a request for the same k is served this table as-is: the cached
/// L/A/D estimates may be slightly stale (the accuracy cost the paper's
/// Q-opt experiment measures), and O_1 is re-used as O_2 without re-running
/// the spatial filter, the forecast fetches, the derouting estimate or the
/// selection. The table is a pure function of (scored pool, k), so a hit
/// serves exactly what re-adapting the pool would. A request for another
/// k misses and regenerates.
class DynamicCache {
 public:
  explicit DynamicCache(const DynamicCacheOptions& options);

  /// The stored table if reusable for a k-row request at (position, now),
  /// else nullptr: a miss when none is stored, it is stale, the vehicle
  /// moved beyond Q, or it was stored for another k. Counts a hit or miss
  /// either way.
  const std::vector<ScoredCandidate>* TryReuse(const Point& position,
                                               SimTime now, size_t k);

  /// True when no stored solution is reusable at `now` or later: none is
  /// stored, or it is older than the TTL (TryReuse's staleness test).
  /// With non-decreasing query times an expired cache misses exactly as a
  /// new one does, so the serving runtime can drop it.
  bool Expired(SimTime now) const {
    return !has_solution_ || now - stored_at_ > options_.ttl_s;
  }

  /// Replaces the stored table (at most k rows, best first) for k-row
  /// requests, anchored at (position, now). Copies into the existing
  /// storage, so steady-state stores reuse its capacity instead of
  /// allocating.
  void Store(const Point& position, SimTime now, size_t k,
             const std::vector<ScoredCandidate>& table);

  // perfbench only; deleted by direction 2's benchmark change. They store
  // and return a whole scored pool under a k no request uses, which the
  // caller adapts itself; adapting it at k gives the table the k-keyed
  // forms store.
  const std::vector<ScoredCandidate>* TryReuse(const Point& position,
                                               SimTime now) {
    return TryReuse(position, now, kUnadapted);
  }
  void Store(const Point& position, SimTime now,
             const std::vector<ScoredCandidate>& pool) {
    Store(position, now, kUnadapted, pool);
  }

  /// Drops the stored table (trip changed, settings changed). Keeps the
  /// storage so a later Store() reuses its capacity.
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
  /// The k of a pool stored whole by the k-agnostic Store.
  static constexpr size_t kUnadapted = static_cast<size_t>(-1);

  DynamicCacheOptions options_;
  bool has_solution_ = false;
  Point anchor_;
  SimTime stored_at_ = 0.0;
  size_t k_ = 0;
  std::vector<ScoredCandidate> table_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_DYNAMIC_CACHE_H_
