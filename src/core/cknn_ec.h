#ifndef ECOCHARGE_CORE_CKNN_EC_H_
#define ECOCHARGE_CORE_CKNN_EC_H_

#include <cstdint>
#include <vector>

#include "core/ec_estimator.h"
#include "core/offering_table.h"
#include "core/query_context.h"
#include "obs/metrics.h"
#include "spatial/spatial_index.h"

namespace ecocharge {

class ChIndex;
class LandmarkIndex;

/// \brief Resolved handles for the query pipeline's phase instrumentation.
///
/// All pointers are borrowed from a MetricsRegistry (which must outlive the
/// processor) and may individually be null; a default-constructed instance
/// disables instrumentation entirely. Handles resolve once at attach time,
/// so the per-query cost is a null check plus a relaxed atomic op per phase
/// — nothing allocates on the query path.
struct PipelineMetrics {
  obs::Histogram* filter_ns = nullptr;  ///< filtering-phase wall time
  obs::Histogram* score_ns = nullptr;   ///< interval-EC scoring wall time
  obs::Histogram* refine_ns = nullptr;  ///< refinement-phase wall time
  obs::Counter* candidates_scored = nullptr;  ///< survivors of filtering
  obs::Counter* candidates_pruned = nullptr;  ///< dropped by eq. 6 ranking
  obs::Counter* exact_refinements = nullptr;  ///< network-exact upgrades
  obs::Histogram* batch_derouting_ns = nullptr;  ///< batched-sweep wall time
  obs::Counter* batch_targets = nullptr;     ///< chargers covered per batch
  obs::Counter* warm_start_hits = nullptr;   ///< backward sweeps reused

  /// Resolves the canonical `pipeline.*` names on `registry`.
  static PipelineMetrics FromRegistry(obs::MetricsRegistry* registry);
};

/// \brief Eq. (6): intersection of the top-d rankings by SC_min and by
/// SC_max, deepened iteratively until k common chargers are found (or the
/// candidate pool is exhausted). Writes at most k candidates into `*out`
/// ordered by descending score midpoint, using `ctx` rank/mark buffers
/// (zero allocations once the context is warm). `out` must not alias
/// `candidates`. Both rankings are built over SoA key lanes and selected
/// with a partial top-d select.
void IterativeDeepeningIntersection(
    const std::vector<ScoredCandidate>& candidates, size_t k,
    QueryContext* ctx, std::vector<ScoredCandidate>* out);

/// Allocating convenience form of the above.
std::vector<ScoredCandidate> IterativeDeepeningIntersection(
    const std::vector<ScoredCandidate>& candidates, size_t k);

/// \brief Tuning of the CkNN-EC query processor.
struct CknnEcOptions {
  double radius_m = 50000.0;   ///< R: chargers beyond this are filtered out
  size_t refine_limit = 8;     ///< refinement: exact derouting for this many
  bool refine_exact_derouting = true;

  /// Normalization constant for the D score inside this query's objective
  /// — the "environment's maximum derouting distance", which the paper
  /// scales with the user's radius (2R). 0 uses the estimator default.
  double derouting_norm_m = 0.0;

  /// Eq. 6's min/max-ranking intersection. Disabling it ranks candidates
  /// by score midpoint only — the ablation DESIGN.md calls out (interval
  /// robustness vs a single point estimate).
  bool use_intersection = true;

  /// Unused; perfbench still copies it.
  bool batch_derouting = true;
  /// Unused; perfbench still copies it.
  const LandmarkIndex* landmarks = nullptr;
  /// Unused; perfbench still copies it.
  bool landmark_refine_order = true;
  /// Unused; perfbench still copies it.
  const ChIndex* ch = nullptr;

  /// Selects how the filtering phase estimates its candidates (DESIGN.md
  /// §15). True: one columnar EstimateIntervalsBatch call fills the SoA
  /// lanes and ScoreIntervals scores them. False: per-candidate
  /// EstimateIntervals + ComputeScorePair — the estimation oracle the
  /// tests compare against. Offering Tables are bit-identical either way.
  /// It keeps this name because perfbench copies the field.
  bool use_simd = true;
};

/// \brief The CkNN-EC query processor (Section III-C).
///
/// Filtering phase: a range query against the injected SpatialIndex keeps
/// only chargers within R of the vehicle, and each survivor gets cheap
/// interval ECs (forecast L, A; closed-form D bounds) folded into the
/// SC_min/SC_max pair.
/// Refinement phase: iterative-deepening intersection (eq. 6) selects the
/// candidates, and the first `refine_limit` of them in score order get
/// network-exact derouting from one batched sweep before the final
/// ordering — the same set on every derouting backend.
///
/// The processor is index-agnostic: any SpatialIndex backend (the quadtree
/// or the linear-scan oracle) produces the same candidate set in
/// the same canonical order, so the resulting Offering Tables are
/// bit-identical across backends. Each stage has a QueryContext form that
/// reuses caller-owned buffers — the steady-state zero-allocation path —
/// plus an allocating convenience form.
class CknnEcProcessor {
 public:
  /// \param charger_index spatial index over the fleet's positions, where
  ///        item ids equal positions in the fleet vector (not owned)
  CknnEcProcessor(EcEstimator* estimator, const SpatialIndex* charger_index,
                  const CknnEcOptions& options);

  /// Candidate ids within R of `position` (the filtering phase's spatial
  /// part), exposed so Dynamic Caching can reuse the candidate set.
  /// Results land in `ctx->candidates`; the returned reference aliases it.
  const std::vector<ChargerId>& FilterCandidates(const Point& position,
                                                 QueryContext* ctx) const;

  /// Allocating convenience form.
  std::vector<ChargerId> FilterCandidates(const Point& position) const;

  /// Scores `candidate_ids` with estimated interval ECs into
  /// `ctx->scored`; the returned reference aliases it. `candidate_ids`
  /// may alias `ctx->candidates`.
  const std::vector<ScoredCandidate>& ScoreCandidates(
      const VehicleState& state, const std::vector<ChargerId>& candidate_ids,
      const ScoreWeights& weights, QueryContext* ctx);

  /// Allocating convenience form.
  std::vector<ScoredCandidate> ScoreCandidates(
      const VehicleState& state, const std::vector<ChargerId>& candidate_ids,
      const ScoreWeights& weights);

  /// Full query: filter, score, intersect, refine. Writes the top-k
  /// entries best-first into `*out` (typically `&ctx->entries` or a
  /// reused OfferingTable's entry vector).
  void Query(const VehicleState& state, size_t k, const ScoreWeights& weights,
             QueryContext* ctx, std::vector<OfferingEntry>* out);

  /// Allocating convenience form.
  std::vector<OfferingEntry> Query(const VehicleState& state, size_t k,
                                   const ScoreWeights& weights);

  /// Refinement on an already-scored pool in `*scored` (`&ctx->scored`
  /// after scoring, or a Dynamic Cache entry on the cached path, which
  /// skips filtering).
  /// `refine_exact_derouting` toggles the network-exact refinement for
  /// this call — the Dynamic-Caching hit path passes false to keep the
  /// adaptation cheap. `*scored` itself is left unmodified; winners are
  /// copied through `ctx->selected` into `*out`.
  ///
  /// Precondition when `refine_exact_derouting` is true: `*scored` was
  /// scored at `state` (ScoreCandidates with this `state`), because the
  /// refined candidates keep those estimated L and A intervals and only
  /// their derouting is replaced by the exact one.
  void RefineAndRank(const VehicleState& state,
                     const std::vector<ScoredCandidate>* scored, size_t k,
                     const ScoreWeights& weights, bool refine_exact_derouting,
                     QueryContext* ctx, std::vector<OfferingEntry>* out);

  /// Allocating convenience form using the options' refinement setting.
  std::vector<OfferingEntry> RefineAndRank(
      const VehicleState& state, std::vector<ScoredCandidate> scored,
      size_t k, const ScoreWeights& weights);

  const CknnEcOptions& options() const { return options_; }

  /// Installs phase timers and candidate counters (copied by value; the
  /// histograms/counters they point at must outlive the processor). A
  /// default-constructed PipelineMetrics turns instrumentation back off.
  void set_metrics(const PipelineMetrics& metrics) { metrics_ = metrics; }

  /// Convenience: resolve the canonical `pipeline.*` names on `registry`
  /// and install them; null detaches.
  void AttachMetrics(obs::MetricsRegistry* registry) {
    metrics_ = registry ? PipelineMetrics::FromRegistry(registry)
                        : PipelineMetrics{};
  }

  const PipelineMetrics& metrics() const { return metrics_; }

 private:
  EcEstimator* estimator_;
  const SpatialIndex* charger_index_;
  CknnEcOptions options_;
  PipelineMetrics metrics_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_CKNN_EC_H_
