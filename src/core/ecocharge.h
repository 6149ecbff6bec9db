#ifndef ECOCHARGE_CORE_ECOCHARGE_H_
#define ECOCHARGE_CORE_ECOCHARGE_H_

#include <memory>
#include <vector>

#include "core/cknn_ec.h"
#include "core/dynamic_cache.h"
#include "core/ranker.h"

namespace ecocharge {

/// \brief The user-facing configuration of EcoCharge (Algorithm 1).
struct EcoChargeOptions {
  double radius_m = 50000.0;       ///< R: search radius (paper default 50 km)
  double q_distance_m = 5000.0;    ///< Q: cache-reuse distance (default 5 km)
  double cache_ttl_s = 15.0 * kSecondsPerMinute;
  size_t refine_limit = 8;         ///< exact-derouting refinements per query
  bool refine_exact_derouting = true;

  /// Eq. 6 intersection on/off (see CknnEcOptions::use_intersection).
  bool use_intersection = true;

  /// Unused; perfbench still copies it.
  bool batch_derouting = true;
  /// Unused; perfbench still copies it.
  const LandmarkIndex* landmarks = nullptr;
  /// Unused; perfbench still copies it.
  bool landmark_refine_order = true;
  /// Unused; perfbench still copies it.
  const ChIndex* ch = nullptr;

  /// Columnar (true) or per-candidate (false) EC estimation; see
  /// CknnEcOptions::use_simd. Offering Tables are bit-identical either
  /// way; false is the estimation oracle the tests select. perfbench
  /// copies the field.
  bool use_simd = true;

  /// Per-client Dynamic Caching (Section IV-C) on/off. The fleet
  /// runtime's corridor cache ranks canonical anchor states with this
  /// off, so a stored corridor table is a pure function of (corridor key,
  /// world epoch) — independent of which vehicle computed it first.
  bool use_dynamic_cache = true;

  /// The tuning of a Dynamic Cache serving these options.
  DynamicCacheOptions cache_options() const {
    return {q_distance_m, cache_ttl_s};
  }
};

/// \brief The EcoCharge renewable-hoarding algorithm.
///
/// Implements Algorithm 1 on top of the CkNN-EC processor:
///  1. the trip is segmented upstream (workload.h);
///  2. per vehicle state, the filtering phase collects chargers within R
///     and scores interval ECs, the refinement phase intersects the
///     SC_min/SC_max rankings (eq. 6) and exact-refines the leaders;
///  3. Dynamic Caching adapts the previous Offering Table while the
///     vehicle has moved less than Q and the estimates are fresh — the
///     cached path skips the spatial filter and, via the per-call
///     refinement flag, the exact derouting refinement.
///
/// The ranker works against any SpatialIndex backend and spends no heap
/// allocations per query once the caller's QueryContext is warm — the
/// exact-derouting sweeps included, whose frontier and batch staging
/// persist in the estimator's search workspace and the context.
class EcoChargeRanker : public Ranker {
 public:
  EcoChargeRanker(EcEstimator* estimator, const SpatialIndex* charger_index,
                  const ScoreWeights& weights,
                  const EcoChargeOptions& options);

  std::string_view name() const override { return "EcoCharge"; }
  /// Ranks with the ranker's own Dynamic Cache, or fresh when
  /// `use_dynamic_cache` is off.
  void RankInto(const VehicleState& state, size_t k, QueryContext& ctx,
                OfferingTable* out) override;
  /// Ranks against `cache`: adapts its solution when reusable, else
  /// regenerates and stores the new one. A null cache ranks fresh, a pure
  /// function of the state and the world. The serving runtime shares one
  /// ranker across clients and passes each client's own cache.
  void RankInto(const VehicleState& state, size_t k, DynamicCache* cache,
                QueryContext& ctx, OfferingTable* out);
  void Reset() override;

  const DynamicCache& cache() const { return cache_; }
  const EcoChargeOptions& options() const { return options_; }

  /// Installs phase timers/counters on the underlying CkNN-EC processor
  /// (both the full-regeneration and the cached adaptation path record
  /// through the same handles).
  void set_metrics(const PipelineMetrics& metrics) {
    processor_.set_metrics(metrics);
  }

  /// Resolves the canonical `pipeline.*` names on `registry` and installs
  /// them; null detaches.
  void AttachMetrics(obs::MetricsRegistry* registry) {
    processor_.AttachMetrics(registry);
  }

 private:
  ScoreWeights weights_;
  EcoChargeOptions options_;
  CknnEcProcessor processor_;
  DynamicCache cache_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_ECOCHARGE_H_
