#include "core/cknn_ec.h"

#include <algorithm>
#include <span>

namespace ecocharge {

namespace {

/// Transposes the pool's score pairs and ids into SoA lanes — the gather
/// step for rankings over pools that arrive AoS (scored candidates,
/// cache-adapted pools). Sizes sc_min/sc_max/ids to the pool.
void GatherScoreLanes(const std::vector<ScoredCandidate>& candidates,
                      simd::ScoreLanes* lanes) {
  const size_t n = candidates.size();
  lanes->sc_min.resize(n);
  lanes->sc_max.resize(n);
  lanes->ids.resize(n);
  for (size_t i = 0; i < n; ++i) {
    lanes->sc_min[i] = candidates[i].score.sc_min;
    lanes->sc_max[i] = candidates[i].score.sc_max;
    lanes->ids[i] = candidates[i].charger_id;
  }
}

/// Midpoint lane + its descending total-order keys from the sc lanes.
void BuildMidpointKeys(simd::ScoreLanes* lanes) {
  const size_t n = lanes->sc_min.size();
  lanes->mid.resize(n);
  lanes->keys_mid.resize(n);
  simd::Midpoints(lanes->sc_min.data(), lanes->sc_max.data(), n,
                  lanes->mid.data());
  simd::DescendingKeys(lanes->mid.data(), n, lanes->keys_mid.data());
}

void Iota(std::vector<uint32_t>* order, size_t n) {
  order->resize(n);
  for (uint32_t i = 0; i < n; ++i) (*order)[i] = i;
}

}  // namespace

PipelineMetrics PipelineMetrics::FromRegistry(obs::MetricsRegistry* registry) {
  PipelineMetrics m;
  if (!registry) return m;
  m.filter_ns = registry->GetHistogram("pipeline.filter_ns", "ns");
  m.score_ns = registry->GetHistogram("pipeline.score_ns", "ns");
  m.refine_ns = registry->GetHistogram("pipeline.refine_ns", "ns");
  m.candidates_scored =
      registry->GetCounter("pipeline.candidates_scored", "candidates");
  m.candidates_pruned =
      registry->GetCounter("pipeline.candidates_pruned", "candidates");
  m.exact_refinements =
      registry->GetCounter("pipeline.exact_refinements", "refinements");
  m.batch_derouting_ns =
      registry->GetHistogram("pipeline.batch_derouting_ns", "ns");
  m.batch_targets = registry->GetCounter("pipeline.batch_targets", "chargers");
  m.warm_start_hits =
      registry->GetCounter("pipeline.warm_start_hits", "sweeps");
  return m;
}

void IterativeDeepeningIntersection(
    const std::vector<ScoredCandidate>& candidates, size_t k,
    QueryContext* ctx, std::vector<ScoredCandidate>* out) {
  out->clear();
  if (candidates.empty() || k == 0) return;

  // Gather once into SoA lanes, convert both score lanes to total-order
  // integer keys (NaN ranks last, deterministically), and from then on the
  // rankings are pure index/key work: no double compares, no branches on
  // unordered values.
  const size_t n = candidates.size();
  simd::ScoreLanes& lanes = ctx->lanes;
  GatherScoreLanes(candidates, &lanes);
  lanes.keys_min.resize(n);
  lanes.keys_max.resize(n);
  simd::DescendingKeys(lanes.sc_min.data(), n, lanes.keys_min.data());
  simd::DescendingKeys(lanes.sc_max.data(), n, lanes.keys_max.data());

  // Deepen: take the top-d of both rankings, intersect, and grow d until
  // the intersection holds k chargers or everything has been considered.
  // Each round partial-selects just the top-d it needs (the selects are
  // re-run from a fresh iota because selection permutes the index array;
  // the doubling schedule keeps the total select work O(n log n) worst
  // case, same as one full sort). Membership in the top-d of by_min is
  // tracked by stamping member_mark with a per-iteration epoch — no hash
  // set, no clearing.
  std::vector<uint32_t>& by_min = ctx->order_min;
  std::vector<uint32_t>& by_max = ctx->order_max;
  if (ctx->member_mark.size() < n) ctx->member_mark.resize(n, 0);
  size_t depth = std::min(k, n);
  std::vector<uint32_t>& common = ctx->common;
  while (true) {
    Iota(&by_min, n);
    Iota(&by_max, n);
    simd::PartialSelectDescending(lanes.keys_min.data(), lanes.ids.data(),
                                  by_min.data(), n, depth);
    simd::PartialSelectDescending(lanes.keys_max.data(), lanes.ids.data(),
                                  by_max.data(), n, depth);
    uint64_t epoch = ++ctx->mark_epoch;
    for (size_t i = 0; i < depth; ++i) ctx->member_mark[by_min[i]] = epoch;
    common.clear();
    for (size_t i = 0; i < depth; ++i) {
      if (ctx->member_mark[by_max[i]] == epoch) common.push_back(by_max[i]);
    }
    if (common.size() >= k || depth == n) break;
    depth = std::min(n, depth * 2);
  }

  // Order the common chargers by score midpoint (the final sort of eq. 6)
  // and keep k — a partial select again, since only the kept prefix's
  // order is observable.
  BuildMidpointKeys(&lanes);
  const size_t keep = std::min(k, common.size());
  simd::PartialSelectDescending(lanes.keys_mid.data(), lanes.ids.data(),
                                common.data(), common.size(), keep);
  common.resize(keep);
  out->reserve(common.size());
  for (uint32_t idx : common) out->push_back(candidates[idx]);
}

std::vector<ScoredCandidate> IterativeDeepeningIntersection(
    const std::vector<ScoredCandidate>& candidates, size_t k) {
  QueryContext ctx;
  std::vector<ScoredCandidate> out;
  IterativeDeepeningIntersection(candidates, k, &ctx, &out);
  return out;
}

CknnEcProcessor::CknnEcProcessor(EcEstimator* estimator,
                                 const SpatialIndex* charger_index,
                                 const CknnEcOptions& options)
    : estimator_(estimator),
      charger_index_(charger_index),
      options_(options) {}

const std::vector<ChargerId>& CknnEcProcessor::FilterCandidates(
    const Point& position, QueryContext* ctx) const {
  obs::ScopedTimer timer(metrics_.filter_ns);
  charger_index_->RangeSearchInto(position, options_.radius_m, &ctx->spatial,
                                  &ctx->neighbors);
  // Both backends return only neighbors with distance <= R (a NaN
  // distance fails that test), so every neighbor is a candidate.
  ctx->candidates.clear();
  for (const Neighbor& nb : ctx->neighbors) ctx->candidates.push_back(nb.id);
  return ctx->candidates;
}

std::vector<ChargerId> CknnEcProcessor::FilterCandidates(
    const Point& position) const {
  QueryContext ctx;
  FilterCandidates(position, &ctx);
  return std::move(ctx.candidates);
}

const std::vector<ScoredCandidate>& CknnEcProcessor::ScoreCandidates(
    const VehicleState& state, const std::vector<ChargerId>& candidate_ids,
    const ScoreWeights& weights, QueryContext* ctx) {
  obs::ScopedTimer timer(metrics_.score_ns);
  std::vector<ScoredCandidate>& scored = ctx->scored;
  if (options_.use_simd) {
    // One columnar batch fills the EC lanes (one EIS call per request),
    // then the eq. 4–5 arithmetic runs as one pass over them.
    simd::ScoreLanes& lanes = ctx->lanes;
    estimator_->EstimateIntervalsBatch(state, candidate_ids,
                                       options_.derouting_norm_m, ctx);
    const size_t n = scored.size();
    lanes.sc_min.resize(n);
    lanes.sc_max.resize(n);
    simd::ScoreIntervals(lanes.level_lo.data(), lanes.level_hi.data(),
                         lanes.avail_lo.data(), lanes.avail_hi.data(),
                         lanes.der_lo.data(), lanes.der_hi.data(), n, weights,
                         lanes.sc_min.data(), lanes.sc_max.data());
    for (size_t i = 0; i < n; ++i) {
      scored[i].score.sc_min = lanes.sc_min[i];
      scored[i].score.sc_max = lanes.sc_max[i];
    }
  } else {
    // Per-candidate oracle: the AoS path, byte-for-byte the ECs and
    // scores the columnar batch above must reproduce.
    const std::vector<EvCharger>& fleet = estimator_->fleet();
    scored.clear();
    scored.reserve(candidate_ids.size());
    for (ChargerId id : candidate_ids) {
      if (id >= fleet.size()) continue;
      ScoredCandidate c;
      c.charger_id = id;
      c.ecs = estimator_->EstimateIntervals(state, fleet[id],
                                            options_.derouting_norm_m);
      c.score = ComputeScorePair(c.ecs, weights);
      scored.push_back(c);
    }
  }
  if (metrics_.candidates_scored && !scored.empty()) {
    metrics_.candidates_scored->Add(scored.size());
  }
  return scored;
}

std::vector<ScoredCandidate> CknnEcProcessor::ScoreCandidates(
    const VehicleState& state, const std::vector<ChargerId>& candidate_ids,
    const ScoreWeights& weights) {
  QueryContext ctx;
  ScoreCandidates(state, candidate_ids, weights, &ctx);
  return std::move(ctx.scored);
}

void CknnEcProcessor::RefineAndRank(const VehicleState& state,
                                    const std::vector<ScoredCandidate>* scored,
                                    size_t k, const ScoreWeights& weights,
                                    bool refine_exact_derouting,
                                    QueryContext* ctx,
                                    std::vector<OfferingEntry>* out) {
  obs::ScopedTimer timer(metrics_.refine_ns);
  // Intersection over a pool slightly deeper than k, so the exact-derouting
  // refinement has alternatives to promote.
  size_t pool =
      refine_exact_derouting ? std::max(k, options_.refine_limit) : k;
  std::vector<ScoredCandidate>& selected = ctx->selected;
  if (options_.use_intersection) {
    IterativeDeepeningIntersection(*scored, pool, ctx, &selected);
  } else {
    // Ablation path: plain top-`pool` by score midpoint, via the same key
    // lanes and partial select as the intersection. Rank the indices so
    // `*scored` (often a live cache entry) stays untouched.
    simd::ScoreLanes& lanes = ctx->lanes;
    GatherScoreLanes(*scored, &lanes);
    BuildMidpointKeys(&lanes);
    const size_t n = scored->size();
    std::vector<uint32_t>& order = ctx->order_min;
    Iota(&order, n);
    const size_t keep = std::min(pool, n);
    simd::PartialSelectDescending(lanes.keys_mid.data(), lanes.ids.data(),
                                  order.data(), n, keep);
    order.resize(keep);
    selected.clear();
    selected.reserve(order.size());
    for (uint32_t idx : order) selected.push_back((*scored)[idx]);
  }

  if (metrics_.candidates_pruned && scored->size() > selected.size()) {
    metrics_.candidates_pruned->Add(scored->size() - selected.size());
  }

  const std::vector<EvCharger>& fleet = estimator_->fleet();
  const size_t refine_count =
      refine_exact_derouting ? std::min(options_.refine_limit, selected.size())
                             : 0;
  if (refine_count > 0) {
    // The refine set is the first refine_count selected candidates, in
    // score order, on every derouting backend. One forward sweep covers
    // every outbound leg, one (possibly warm) backward extension every
    // return leg; the batch touches no EIS.
    DeroutingBatchScratch& scratch = ctx->derouting;
    scratch.chargers.clear();
    for (size_t i = 0; i < refine_count; ++i) {
      scratch.chargers.push_back(&fleet[selected[i].charger_id]);
    }
    BatchSweepStats stats;
    {
      obs::ScopedTimer batch_timer(metrics_.batch_derouting_ns);
      stats = estimator_->ExactDeroutingBatch(
          state, std::span<const ChargerRef>(scratch.chargers), &scratch);
    }
    if (metrics_.batch_targets) metrics_.batch_targets->Add(stats.targets);
    if (metrics_.warm_start_hits && stats.warm_start) {
      metrics_.warm_start_hits->Add();
    }
    // selected[i].ecs are the ECs ScoreCandidates estimated at `state`
    // (the precondition), so only their derouting component is replaced.
    for (size_t i = 0; i < refine_count; ++i) {
      ScoredCandidate& c = selected[i];
      estimator_->ApplyExactDerouting(scratch.estimates[i],
                                      options_.derouting_norm_m, &c.ecs);
      c.score = ComputeScorePair(c.ecs, weights);
      if (metrics_.exact_refinements) metrics_.exact_refinements->Add();
    }
  }

  out->clear();
  out->reserve(selected.size());
  for (const ScoredCandidate& c : selected) {
    OfferingEntry e;
    e.charger_id = c.charger_id;
    e.score = c.score;
    e.ecs = c.ecs;
    e.eta_s = c.ecs.eta_s;
    out->push_back(e);
  }
  // Partial top-k: only the k kept rows' order is observable, and the
  // entry order is total (NaN-safe keys), so this is bit-identical to the
  // former sort-everything-then-truncate.
  SortOfferingEntriesTopK(*out, k);
}

std::vector<OfferingEntry> CknnEcProcessor::RefineAndRank(
    const VehicleState& state, std::vector<ScoredCandidate> scored, size_t k,
    const ScoreWeights& weights) {
  QueryContext ctx;
  std::vector<OfferingEntry> out;
  RefineAndRank(state, &scored, k, weights, options_.refine_exact_derouting,
                &ctx, &out);
  return out;
}

void CknnEcProcessor::Query(const VehicleState& state, size_t k,
                            const ScoreWeights& weights, QueryContext* ctx,
                            std::vector<OfferingEntry>* out) {
  const std::vector<ChargerId>& candidates =
      FilterCandidates(state.position, ctx);
  const std::vector<ScoredCandidate>& scored =
      ScoreCandidates(state, candidates, weights, ctx);
  RefineAndRank(state, &scored, k, weights, options_.refine_exact_derouting,
                ctx, out);
}

std::vector<OfferingEntry> CknnEcProcessor::Query(const VehicleState& state,
                                                  size_t k,
                                                  const ScoreWeights& weights) {
  QueryContext ctx;
  std::vector<OfferingEntry> out;
  Query(state, k, weights, &ctx, &out);
  return out;
}

}  // namespace ecocharge
