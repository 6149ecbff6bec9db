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

  /// If true, the cache-adaptation path revises the derouting component
  /// for the new position before re-ranking. The paper skips the
  /// recalculation entirely while within Q (the accuracy/time trade-off
  /// its Q-opt experiment sweeps), so the default is false.
  bool adapt_revises_derouting = false;

  /// Batched exact refinement (one multi-target sweep per query instead of
  /// `refine_limit` point-to-point searches); results are bit-identical
  /// either way. Off is the `--no-batch-derouting` escape hatch.
  bool batch_derouting = true;

  /// Optional ALT landmark bounds for refinement-candidate ordering (see
  /// CknnEcOptions::landmarks; borrowed, may be null).
  const LandmarkIndex* landmarks = nullptr;
  bool landmark_refine_order = true;

  /// Optional contraction hierarchy for refinement-candidate ordering (see
  /// CknnEcOptions::ch; borrowed, may be null). Preferred over `landmarks`
  /// when both are set.
  const ChIndex* ch = nullptr;

  /// Vectorized filter/score hot path (see CknnEcOptions::use_simd);
  /// Offering Tables are bit-identical with it on or off. Off is the
  /// `--no-simd` escape hatch / scalar parity oracle.
  bool use_simd = true;

  /// Per-client Dynamic Caching (Section IV-C) on/off. The fleet
  /// runtime's corridor cache ranks canonical anchor states with this
  /// off, so a stored corridor table is a pure function of (corridor key,
  /// world epoch) — independent of which vehicle computed it first.
  bool use_dynamic_cache = true;
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
  void RankInto(const VehicleState& state, size_t k, QueryContext& ctx,
                OfferingTable* out) override;
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
  EcEstimator* estimator_;
  ScoreWeights weights_;
  EcoChargeOptions options_;
  CknnEcProcessor processor_;
  DynamicCache cache_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_ECOCHARGE_H_
