#ifndef ECOCHARGE_CORE_CKNN_EC_H_
#define ECOCHARGE_CORE_CKNN_EC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ec_estimator.h"
#include "core/offering_table.h"
#include "core/query_context.h"
#include "obs/metrics.h"
#include "spatial/spatial_index.h"

namespace ecocharge {

class ChIndex;
class ChQuery;
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
  obs::Counter* simd_batches = nullptr;  ///< vector-kernel invocations
  obs::Counter* simd_lanes = nullptr;    ///< candidate lanes they streamed

  /// Resolves the canonical `pipeline.*` names on `registry`.
  static PipelineMetrics FromRegistry(obs::MetricsRegistry* registry);
};

/// \brief Eq. (6): intersection of the top-d rankings by SC_min and by
/// SC_max, deepened iteratively until k common chargers are found (or the
/// candidate pool is exhausted). Writes at most k candidates into `*out`
/// ordered by descending score midpoint, using `ctx` rank/mark buffers
/// (zero allocations once the context is warm). `out` must not alias
/// `candidates`. Both rankings are built over SoA key lanes and selected
/// with a partial top-d select; `use_simd` picks the vector kernels for the
/// key/midpoint conversions, false the scalar reference — the selection
/// order is bit-identical either way (shared integer-key machinery).
void IterativeDeepeningIntersection(
    const std::vector<ScoredCandidate>& candidates, size_t k,
    QueryContext* ctx, std::vector<ScoredCandidate>* out,
    bool use_simd = true);

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

  /// Batched exact refinement: one multi-target forward sweep plus one
  /// (possibly warm) backward sweep per query instead of `refine_limit`
  /// point-to-point searches. Produces bit-identical Offering Tables to
  /// the per-candidate path (both run on the same sweep primitives); off
  /// is the escape hatch / A-B baseline.
  bool batch_derouting = true;

  /// Optional ALT lower bounds (borrowed, may be null). With
  /// `landmark_refine_order`, refinement candidates are picked by
  /// ascending lower-bounded derouting cost instead of score-midpoint
  /// order, so the batch target set stays tight around the route.
  const LandmarkIndex* landmarks = nullptr;
  bool landmark_refine_order = true;  ///< effective with `landmarks` or `ch`

  /// Optional contraction hierarchy (borrowed, may be null). When set, the
  /// candidate ordering uses exact free-flow (length-metric) CH distances
  /// as the lower bound instead of the ALT triangle bounds — still
  /// admissible for the congested cost (speed factors never exceed 1) and
  /// strictly tighter, so the refine set hugs the route more closely.
  /// Takes precedence over `landmarks` for ordering. Must be the
  /// estimator's own hierarchy (EcEstimatorOptions::ch): the length plane
  /// comes from its ch_cache.
  const ChIndex* ch = nullptr;

  /// Vectorized filter/score hot path (DESIGN.md §15): candidate pruning,
  /// eq. 4–5 interval scoring, and ranking-key conversion run as SIMD
  /// kernels over the QueryContext's SoA lanes. Off (`--no-simd`) routes
  /// the same lanes through the scalar reference kernels — the parity
  /// oracle; Offering Tables are bit-identical either way.
  bool use_simd = true;
};

/// \brief The CkNN-EC query processor (Section III-C).
///
/// Filtering phase: a range query against the injected SpatialIndex keeps
/// only chargers within R of the vehicle, and each survivor gets cheap
/// interval ECs (forecast L, A; closed-form D bounds) folded into the
/// SC_min/SC_max pair.
/// Refinement phase: iterative-deepening intersection (eq. 6) selects the
/// candidates, and the top `refine_limit` get network-exact derouting
/// before the final ordering.
///
/// The processor is index-agnostic: any SpatialIndex backend (quadtree,
/// R-tree, grid, kd-tree, linear scan) produces the same candidate set in
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
  ~CknnEcProcessor();

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

  /// Refinement on an already-scored pool in `*scored` (typically
  /// `&ctx->scored`; used by the cached path, which skips filtering).
  /// `refine_exact_derouting` toggles the network-exact refinement for
  /// this call — the Dynamic-Caching hit path passes false to keep the
  /// adaptation cheap. `*scored` itself is left unmodified; winners are
  /// copied through `ctx->selected` into `*out`.
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

  /// The length-metric CH ordering workspace: null until `options().ch`
  /// is set and an ordering is not moot.
  const ChQuery* ordering_query() const { return ch_query_.get(); }

 private:
  /// Reorders `ctx->selected` so the `refine_limit` candidates with the
  /// smallest ALT-lower-bounded derouting cost come first (in bound
  /// order); the remainder keeps its score order. No-op when every
  /// selected candidate gets refined anyway or a query node can't be
  /// resolved. Runs before the batch/per-candidate branch so both paths
  /// refine the same set.
  void OrderByDeroutingBound(const VehicleState& state, QueryContext* ctx);

  EcEstimator* estimator_;
  const SpatialIndex* charger_index_;
  CknnEcOptions options_;
  PipelineMetrics metrics_;
  /// Length-metric CH query workspace for OrderByDeroutingBound; null
  /// until options_.ch is set and an ordering is not moot.
  std::unique_ptr<ChQuery> ch_query_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_CKNN_EC_H_
