#include "core/ecocharge.h"

namespace ecocharge {

namespace {

CknnEcOptions ProcessorOptions(const EcoChargeOptions& o) {
  CknnEcOptions c;
  c.radius_m = o.radius_m;
  c.refine_limit = o.refine_limit;
  c.refine_exact_derouting = o.refine_exact_derouting;
  c.use_intersection = o.use_intersection;
  c.use_simd = o.use_simd;
  // The user's radius defines the environment the paper normalizes the
  // derouting cost by: D = extra distance / (2R).
  c.derouting_norm_m = 2.0 * o.radius_m;
  return c;
}

}  // namespace

EcoChargeRanker::EcoChargeRanker(EcEstimator* estimator,
                                 const SpatialIndex* charger_index,
                                 const ScoreWeights& weights,
                                 const EcoChargeOptions& options)
    : weights_(weights),
      options_(options),
      processor_(estimator, charger_index, ProcessorOptions(options)),
      cache_(options.cache_options()) {}

void EcoChargeRanker::RankInto(const VehicleState& state, size_t k,
                               QueryContext& ctx, OfferingTable* out) {
  RankInto(state, k, options_.use_dynamic_cache ? &cache_ : nullptr, ctx,
           out);
}

void EcoChargeRanker::RankInto(const VehicleState& state, size_t k,
                               DynamicCache* cache, QueryContext& ctx,
                               OfferingTable* out) {
  out->generated_at = state.time;
  out->location = state.position;
  out->segment_index = state.segment_index;
  out->adapted_from_cache = false;
  out->degraded = false;
  out->entries.clear();

  if (const std::vector<ScoredCandidate>* cached =
          cache ? cache->TryReuse(state.position, state.time) : nullptr) {
    // Adaptation: reuse the previously solved sub-problems. The
    // recalculation is skipped entirely (the cached L/A/D stay as computed
    // at the anchor position — the staleness the Q parameter trades away),
    // and the cache entry itself is re-ranked: estimated intervals only,
    // no network-exact refinement, so RefineAndRank only reads it.
    processor_.RefineAndRank(state, cached, k, weights_,
                             /*refine_exact_derouting=*/false, &ctx,
                             &out->entries);
    out->adapted_from_cache = true;
    for (const OfferingEntry& e : out->entries) {
      out->NoteEntryDegradation(e.ecs);
    }
    return;
  }

  // Full regeneration: filter within R, score, intersect, refine.
  const std::vector<ChargerId>& candidates =
      processor_.FilterCandidates(state.position, &ctx);
  const std::vector<ScoredCandidate>& scored =
      processor_.ScoreCandidates(state, candidates, weights_, &ctx);
  if (cache) cache->Store(state.position, state.time, scored);
  processor_.RefineAndRank(state, &scored, k, weights_,
                           options_.refine_exact_derouting, &ctx,
                           &out->entries);
  for (const OfferingEntry& e : out->entries) {
    out->NoteEntryDegradation(e.ecs);
  }
}

void EcoChargeRanker::Reset() { cache_.Clear(); }

}  // namespace ecocharge
