#include "core/baselines.h"

#include <algorithm>

namespace ecocharge {

namespace {

/// Builds an exact-valued offering entry from realized components.
OfferingEntry MakeTruthEntry(ChargerId id, const EcTruth& truth,
                             const ScoreWeights& weights) {
  OfferingEntry e;
  e.charger_id = id;
  double sc = ComputeExactScore(truth.level, truth.availability,
                                truth.derouting, weights);
  e.score = ScorePair{sc, sc};
  e.ecs.level = Interval::Exact(truth.level);
  e.ecs.availability = Interval::Exact(truth.availability);
  e.ecs.derouting = Interval::Exact(truth.derouting);
  e.ecs.eta_s = truth.eta_s;
  e.ecs.degraded = truth.degraded;
  e.eta_s = truth.eta_s;
  return e;
}

void StartTable(const VehicleState& state, OfferingTable* out) {
  out->generated_at = state.time;
  out->location = state.position;
  out->segment_index = state.segment_index;
  out->adapted_from_cache = false;
  out->degraded = false;
  out->entries.clear();
}

void FinishTable(size_t k, OfferingTable* out) {
  SortOfferingEntriesTopK(out->entries, k);
  for (const OfferingEntry& e : out->entries) {
    out->NoteEntryDegradation(e.ecs);
  }
}

}  // namespace

BruteForceRanker::BruteForceRanker(EcEstimator* estimator,
                                   const ScoreWeights& weights)
    : estimator_(estimator), weights_(weights) {}

void BruteForceRanker::RankInto(const VehicleState& state, size_t k,
                                QueryContext& /*ctx*/, OfferingTable* out) {
  const std::vector<EvCharger>& fleet = estimator_->fleet();
  StartTable(state, out);
  out->entries.reserve(fleet.size());
  for (const EvCharger& charger : fleet) {
    EcTruth ref = estimator_->ReferenceComponents(state, charger);
    out->entries.push_back(MakeTruthEntry(charger.id, ref, weights_));
  }
  FinishTable(k, out);
}

QuadtreeRanker::QuadtreeRanker(EcEstimator* estimator,
                               const SpatialIndex* charger_index,
                               const ScoreWeights& weights,
                               size_t candidate_budget)
    : estimator_(estimator),
      charger_index_(charger_index),
      weights_(weights),
      candidate_budget_(candidate_budget) {}

void QuadtreeRanker::RankInto(const VehicleState& state, size_t k,
                              QueryContext& ctx, OfferingTable* out) {
  const std::vector<EvCharger>& fleet = estimator_->fleet();
  charger_index_->KnnInto(state.position, std::max(candidate_budget_, k),
                          &ctx.spatial, &ctx.neighbors);
  StartTable(state, out);
  out->entries.reserve(ctx.neighbors.size());
  for (const Neighbor& n : ctx.neighbors) {
    if (n.id >= fleet.size()) continue;
    EcTruth ref = estimator_->ReferenceComponents(state, fleet[n.id]);
    out->entries.push_back(MakeTruthEntry(n.id, ref, weights_));
  }
  FinishTable(k, out);
}

RandomRanker::RandomRanker(EcEstimator* estimator,
                           const SpatialIndex* charger_index, double radius_m,
                           uint64_t seed)
    : estimator_(estimator),
      charger_index_(charger_index),
      radius_m_(radius_m),
      seed_(seed),
      rng_(seed) {}

void RandomRanker::RankInto(const VehicleState& state, size_t k,
                            QueryContext& ctx, OfferingTable* out) {
  charger_index_->RangeSearchInto(state.position, radius_m_, &ctx.spatial,
                                  &ctx.neighbors);
  std::vector<uint32_t>& ids = ctx.candidates;
  ids.clear();
  ids.reserve(ctx.neighbors.size());
  for (const Neighbor& n : ctx.neighbors) ids.push_back(n.id);
  rng_.Shuffle(ids);
  if (ids.size() > k) ids.resize(k);

  StartTable(state, out);
  // The random method does not evaluate objectives; fill the entries with
  // cheap estimated intervals so the table still carries ETA context.
  estimator_->EstimateIntervalsBatch(state, ids, /*derouting_norm_m=*/0.0,
                                     &ctx);
  out->entries.reserve(ctx.scored.size());
  for (const ScoredCandidate& c : ctx.scored) {
    OfferingEntry e;
    e.charger_id = c.charger_id;
    e.ecs = c.ecs;
    e.score = ScorePair{0.0, 0.0};  // deliberately unranked
    e.eta_s = e.ecs.eta_s;
    out->NoteEntryDegradation(e.ecs);
    out->entries.push_back(e);
  }
}

}  // namespace ecocharge
