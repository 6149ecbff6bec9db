#include "core/cknn_ec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

namespace ecocharge {

namespace {

/// Transposes the pool's score pairs and ids into SoA lanes — the gather
/// step for rankings over pools that arrive AoS (the per-candidate
/// oracle's scores, RefineAndRank's caller-owned pools). Sizes
/// sc_min/sc_max/ids to the pool.
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

/// Total-order keys of eq. 6's three rankings (by SC_min, by SC_max and by
/// midpoint) from the pool's sc lanes, so every ranking after this is pure
/// index/key work: no double compares, no branches on unordered values,
/// and NaN ranks last deterministically. Keys slots [from, n), sizes mid
/// and the key lanes to the pool, and drops the sorted rank prefixes.
void KeyScoreLanes(QueryContext* ctx, size_t from = 0) {
  simd::ScoreLanes* lanes = &ctx->lanes;
  ctx->ordered_depth = 0;
  const size_t n = lanes->sc_min.size();
  lanes->mid.resize(n);
  lanes->keys_min.resize(n);
  lanes->keys_max.resize(n);
  lanes->keys_mid.resize(n);
  const size_t m = n - from;
  simd::DescendingKeys(lanes->sc_min.data() + from, m,
                       lanes->keys_min.data() + from);
  simd::DescendingKeys(lanes->sc_max.data() + from, m,
                       lanes->keys_max.data() + from);
  simd::Midpoints(lanes->sc_min.data() + from, lanes->sc_max.data() + from, m,
                  lanes->mid.data() + from);
  simd::DescendingKeys(lanes->mid.data() + from, m,
                       lanes->keys_mid.data() + from);
}

/// Eq. 4–5 over the EC lanes of pool slots [from, n), where n is the size
/// of `ctx->scored`: one pass writes the sc lanes and the pool's scores.
void ScoreEcLanes(size_t from, const ScoreWeights& weights,
                  QueryContext* ctx) {
  simd::ScoreLanes& lanes = ctx->lanes;
  std::vector<ScoredCandidate>& scored = ctx->scored;
  const size_t n = scored.size();
  lanes.sc_min.resize(n);
  lanes.sc_max.resize(n);
  simd::ScoreIntervals(
      lanes.level_lo.data() + from, lanes.level_hi.data() + from,
      lanes.avail_lo.data() + from, lanes.avail_hi.data() + from,
      lanes.der_lo.data() + from, lanes.der_hi.data() + from, n - from,
      weights, lanes.sc_min.data() + from, lanes.sc_max.data() + from);
  for (size_t i = from; i < n; ++i) {
    scored[i].score.sc_min = lanes.sc_min[i];
    scored[i].score.sc_max = lanes.sc_max[i];
  }
}

void Iota(std::vector<uint32_t>* order, size_t n) {
  order->resize(n);
  for (uint32_t i = 0; i < n; ++i) (*order)[i] = i;
}

/// Makes the first `depth` entries of `ctx->order_min` and
/// `ctx->order_max` the top-`depth` slots of each ranking, best first.
/// A select sorts at least 32 deep and twice as deep as asked: eq. 6's
/// final depth is 16 to 32 on the paper's workloads, so every selection
/// over these keys (both of a fresh request, and the bound stage's) mostly
/// shares one select per ranking instead of paying one per depth.
void OrderTopDepth(size_t depth, QueryContext* ctx) {
  if (depth <= ctx->ordered_depth) return;
  const simd::ScoreLanes& lanes = ctx->lanes;
  const size_t n = lanes.keys_min.size();
  if (ctx->ordered_depth == 0) {
    Iota(&ctx->order_min, n);
    Iota(&ctx->order_max, n);
  }
  const size_t m = std::min(n, std::max<size_t>(2 * depth, 32));
  simd::PartialSelectDescending(lanes.keys_min.data(), lanes.ids.data(),
                                ctx->order_min.data(), n, m);
  simd::PartialSelectDescending(lanes.keys_max.data(), lanes.ids.data(),
                                ctx->order_max.data(), n, m);
  ctx->ordered_depth = m;
}

/// Eq. 6's deepening over the keyed lanes: takes the top-d of both
/// rankings, intersects, and grows d until the intersection holds k
/// chargers or everything has been considered. Leaves the intersection
/// in `ctx->common` (unordered) and returns the final d (0 when k or the
/// pool is 0). Membership in the top-d of by_min is tracked by stamping
/// member_mark with a per-round epoch — no hash set, no clearing.
size_t Deepen(size_t k, QueryContext* ctx) {
  const size_t n = ctx->lanes.keys_mid.size();
  std::vector<uint32_t>& common = ctx->common;
  common.clear();
  if (n == 0 || k == 0) return 0;
  if (ctx->member_mark.size() < n) ctx->member_mark.resize(n, 0);
  size_t depth = std::min(k, n);
  while (true) {
    OrderTopDepth(depth, ctx);
    const uint64_t epoch = ++ctx->mark_epoch;
    for (size_t i = 0; i < depth; ++i) {
      ctx->member_mark[ctx->order_min[i]] = epoch;
    }
    common.clear();
    for (size_t i = 0; i < depth; ++i) {
      const uint32_t slot = ctx->order_max[i];
      if (ctx->member_mark[slot] == epoch) common.push_back(slot);
    }
    if (common.size() >= k || depth == n) return depth;
    depth = std::min(n, depth * 2);
  }
}

/// Leaves in `ctx->common` the pool slots of at most k winners over the
/// keyed lanes, best first by midpoint: eq. 6's intersection, or with
/// `intersect` off the plain midpoint top-k (the ablation).
void SelectSlots(size_t k, bool intersect, QueryContext* ctx) {
  std::vector<uint32_t>& common = ctx->common;
  if (!intersect) {
    common.clear();
    if (k > 0) Iota(&common, ctx->lanes.keys_mid.size());
  } else {
    Deepen(k, ctx);
  }
  // Order the winners by score midpoint (the final sort of eq. 6) and keep
  // k — a partial select again, since only the kept prefix's order is
  // observable.
  const simd::ScoreLanes& lanes = ctx->lanes;
  const size_t keep = std::min(k, common.size());
  simd::PartialSelectDescending(lanes.keys_mid.data(), lanes.ids.data(),
                                common.data(), common.size(), keep);
  common.resize(keep);
}

/// The first round scores about this many leaders of each score upper
/// bound; the rule scan after it adds whoever else could still reach a
/// top-d.
constexpr size_t kFirstRoundLeaders = 64;

/// A score upper bound's key. A NaN bound bounds nothing, so it keys above
/// every score and its charger is never pruned.
uint64_t BoundKey(double v) {
  return std::isnan(v) ? ~uint64_t{0} : simd::DescendingKey(v);
}

/// Moves every unscored candidate slot that `joins` into the next round:
/// `lanes->round` lists them in ascending order (the order they go to the
/// EIS in) and they are marked scored. Branch-free, one pass.
template <typename Joins>
void CollectRound(simd::ScoreLanes* lanes, Joins&& joins) {
  std::vector<uint8_t>& scored = lanes->cand_scored;
  std::vector<uint32_t>& round = lanes->round;
  const size_t n = scored.size();
  round.resize(n);
  size_t due = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint8_t join = static_cast<uint8_t>(!scored[i]) & joins(i);
    round[due] = i;
    due += join;
    scored[i] |= join;
  }
  round.resize(due);
}

/// Sets up the next round with about the `m` best unscored candidates by
/// each bound key, or every unscored one when at most `m` are left. The
/// cut is the matching order statistic of every 8th unscored candidate's
/// key, so it costs a select over an eighth of them.
void CollectBoundLeaders(size_t m, size_t unscored, simd::ScoreLanes* lanes) {
  uint64_t cut_min = 0;
  uint64_t cut_max = 0;
  if (unscored > m) {
    constexpr size_t kStride = 8;
    std::vector<uint64_t>& sample_min = lanes->sample_min;
    std::vector<uint64_t>& sample_max = lanes->sample_max;
    sample_min.clear();
    sample_max.clear();
    size_t seen = 0;
    for (size_t i = 0; i < lanes->cand_scored.size(); ++i) {
      if (lanes->cand_scored[i] || seen++ % kStride != 0) continue;
      sample_min.push_back(lanes->bound_min[i]);
      sample_max.push_back(lanes->bound_max[i]);
    }
    const size_t rank = std::min(sample_min.size() - 1, m / kStride);
    for (std::vector<uint64_t>* sample : {&sample_min, &sample_max}) {
      std::nth_element(sample->begin(), sample->begin() + rank,
                       sample->end(), std::greater<uint64_t>());
    }
    cut_min = sample_min[rank];
    cut_max = sample_max[rank];
  }
  CollectRound(lanes, [&](uint32_t i) {
    return static_cast<uint8_t>(static_cast<uint8_t>(lanes->bound_min[i] >=
                                                     cut_min) |
                                static_cast<uint8_t>(lanes->bound_max[i] >=
                                                     cut_max));
  });
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
  m.candidates_bounded =
      registry->GetCounter("pipeline.candidates_bounded", "candidates");
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
  GatherScoreLanes(candidates, &ctx->lanes);
  KeyScoreLanes(ctx);
  SelectSlots(k, /*intersect=*/true, ctx);
  out->reserve(ctx->common.size());
  for (uint32_t idx : ctx->common) out->push_back(candidates[idx]);
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
  // distance fails that test), so every neighbor is a candidate. They
  // return them in traversal order, which differs between backends; the
  // candidates go out in ascending id order instead, so per-fetch fault
  // draws and EIS eviction see one order on every backend. A bitset
  // yields it in O(fleet/64 + hits), where a sort costs O(hits log hits).
  std::vector<uint64_t>& bits = ctx->candidate_bits;
  bits.resize((charger_index_->size() + 63) / 64);
  for (const Neighbor& nb : ctx->neighbors) {
    bits[nb.id >> 6] |= uint64_t{1} << (nb.id & 63);
  }
  ctx->candidates.clear();
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      ctx->candidates.push_back(
          static_cast<ChargerId>(w * 64 + std::countr_zero(word)));
    }
    bits[w] = 0;
  }
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
    estimator_->EstimateIntervalsBatch(state, candidate_ids,
                                       options_.derouting_norm_m, ctx);
    ScoreEcLanes(0, weights, ctx);
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
    GatherScoreLanes(scored, &ctx->lanes);
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

void CknnEcProcessor::SelectKeyed(const std::vector<ScoredCandidate>& scored,
                                  size_t pool, QueryContext* ctx,
                                  std::vector<ScoredCandidate>* out) const {
  SelectSlots(pool, options_.use_intersection, ctx);
  out->clear();
  out->reserve(ctx->common.size());
  for (uint32_t idx : ctx->common) out->push_back(scored[idx]);
}

void CknnEcProcessor::RefineAndRank(const VehicleState& state,
                                    const std::vector<ScoredCandidate>* scored,
                                    size_t k, const ScoreWeights& weights,
                                    bool refine_exact_derouting,
                                    QueryContext* ctx,
                                    std::vector<OfferingEntry>* out) {
  obs::ScopedTimer timer(metrics_.refine_ns);
  GatherScoreLanes(*scored, &ctx->lanes);
  KeyScoreLanes(ctx);
  RefineKeyed(state, *scored, k, weights, refine_exact_derouting, ctx, out);
}

void CknnEcProcessor::RefineKeyed(const VehicleState& state,
                                  const std::vector<ScoredCandidate>& scored,
                                  size_t k, const ScoreWeights& weights,
                                  bool refine_exact_derouting,
                                  QueryContext* ctx,
                                  std::vector<OfferingEntry>* out) {
  // Intersection over a pool slightly deeper than k, so the exact-derouting
  // refinement has alternatives to promote.
  const size_t pool =
      refine_exact_derouting ? std::max(k, options_.refine_limit) : k;
  std::vector<ScoredCandidate>& selected = ctx->selected;
  SelectKeyed(scored, pool, ctx, &selected);

  if (metrics_.candidates_pruned && scored.size() > selected.size()) {
    metrics_.candidates_pruned->Add(scored.size() - selected.size());
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
  for (const ScoredCandidate& c : selected) out->push_back(c.Entry());
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

void CknnEcProcessor::ScoreBounded(const VehicleState& state,
                                   const std::vector<ChargerId>& candidates,
                                   const ScoreWeights& weights,
                                   size_t refine_pool, size_t cache_pool,
                                   QueryContext* ctx) {
  obs::ScopedTimer timer(metrics_.score_ns);
  simd::ScoreLanes& lanes = ctx->lanes;
  estimator_->PrepareIntervalsBatch(state, candidates,
                                    options_.derouting_norm_m, ctx);
  estimator_->BoundLevelsBatch(state, ctx);
  const size_t n = lanes.cand_ids.size();
  lanes.bound_min.resize(n);
  lanes.bound_max.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Eq. 4–5 with L at its ceiling, A at 1 and D exact, in
    // ScoreIntervals' operation order: with no weight negative each
    // product, and so each rounded sum, is monotone in its component.
    const double la = lanes.cand_level_ub[i] * weights.w_level +
                      1.0 * weights.w_availability;
    lanes.bound_min[i] =
        BoundKey(la + (1.0 - lanes.cand_der_lo[i]) * weights.w_derouting);
    lanes.bound_max[i] =
        BoundKey(la + (1.0 - lanes.cand_der_hi[i]) * weights.w_derouting);
  }
  lanes.cand_scored.assign(n, 0);
  CollectBoundLeaders(kFirstRoundLeaders, n, &lanes);
  std::vector<ScoredCandidate>& scored = ctx->scored;
  while (!lanes.round.empty()) {
    // One round: fetch and score its candidates, in ascending id order
    // like every EIS batch.
    const size_t from = scored.size();
    estimator_->EstimatePreparedBatch(state, lanes.round, ctx);
    ScoreEcLanes(from, weights, ctx);
    KeyScoreLanes(ctx, from);

    // d: the deepest depth a selection of this request reaches over the
    // scored set S. Each selection over S equals the one over every
    // candidate once S holds both top-d's of all of them: so S must reach
    // d without running out, and every unscored charger must miss both.
    size_t depth = Deepen(cache_pool, ctx);
    if (refine_pool != cache_pool) {
      depth = std::max(depth, Deepen(refine_pool, ctx));
    }
    if (depth == 0) break;  // k = 0: no selection keeps anyone
    if (depth == scored.size()) {
      // The deepening ran out of scored chargers, so S's capped depth is
      // not the schedule over every candidate: score more, best bounds
      // first, before judging anyone.
      CollectBoundLeaders(scored.size(), n - scored.size(), &lanes);
      continue;
    }
    OrderTopDepth(depth, ctx);
    const uint64_t t_min = lanes.keys_min[ctx->order_min[depth - 1]];
    const uint64_t t_max = lanes.keys_max[ctx->order_max[depth - 1]];
    // The rule, in key space: prune only a charger whose upper bounds key
    // strictly below both d-th keys. Then d scored chargers beat it in
    // each ranking whatever its id, and since a score never keys above
    // its bound, NaN scores (key 0) and key ties stay on the safe side.
    CollectRound(&lanes, [&](uint32_t i) {
      return static_cast<uint8_t>(
          static_cast<uint8_t>(lanes.bound_min[i] >= t_min) |
          static_cast<uint8_t>(lanes.bound_max[i] >= t_max));
    });
  }
  if (metrics_.candidates_scored && !scored.empty()) {
    metrics_.candidates_scored->Add(scored.size());
  }
  if (metrics_.candidates_bounded && n > scored.size()) {
    metrics_.candidates_bounded->Add(n - scored.size());
  }
}

void CknnEcProcessor::Query(const VehicleState& state, size_t k,
                            const ScoreWeights& weights, QueryContext* ctx,
                            std::vector<OfferingEntry>* out,
                            std::vector<ScoredCandidate>* adapted) {
  const std::vector<ChargerId>& candidates =
      FilterCandidates(state.position, ctx);
  // The bound stage needs monotone scores (no negative weight), eq. 6's
  // intersection (the midpoint ablation is not pruned) and the columnar
  // path (the per-candidate oracle stays the unpruned reference).
  const bool bounded = options_.use_simd && options_.use_intersection &&
                       !(weights.w_level < 0.0) &&
                       !(weights.w_availability < 0.0) &&
                       !(weights.w_derouting < 0.0);
  const size_t pool =
      options_.refine_exact_derouting ? std::max(k, options_.refine_limit) : k;
  if (bounded) {
    ScoreBounded(state, candidates, weights, pool,
                 adapted != nullptr ? k : pool, ctx);
  } else {
    ScoreCandidates(state, candidates, weights, ctx);
  }
  const std::vector<ScoredCandidate>& scored = ctx->scored;
  obs::ScopedTimer timer(metrics_.refine_ns);
  // The scoring pass left the pool's scores and ids in the lanes: key them
  // once, then select twice (pool k for the adapted table, the refine pool
  // for this table) — the depth schedules differ, the lanes do not.
  if (!bounded) KeyScoreLanes(ctx);
  if (adapted != nullptr) SelectKeyed(scored, k, ctx, adapted);
  RefineKeyed(state, scored, k, weights, options_.refine_exact_derouting, ctx,
              out);
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
