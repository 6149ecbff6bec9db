#include "traffic/derouting.h"

#include <algorithm>
#include <cmath>

#include "ch/ch_customize.h"
#include "ch/ch_profile.h"
#include "ch/ch_query.h"

namespace ecocharge {

DeroutingService::DeroutingService(
    std::shared_ptr<const RoadNetwork> network,
    const CongestionModel* congestion, double detour_factor,
    double exact_time_bucket_s)
    : network_(std::move(network)),
      congestion_(congestion),
      detour_factor_(detour_factor),
      exact_time_bucket_s_(exact_time_bucket_s),
      search_(*network_),
      back_search_(*network_) {}

DeroutingService::~DeroutingService() = default;

/// The batch's reusable elimination-tree label spaces: the three shared
/// endpoint spaces plus the two per-charger ones the loop overwrites.
struct DeroutingService::ChBatchSpaces {
  ChSpace m_fwd;
  ChSpace ra_bwd;
  ChSpace rb_bwd;
  ChSpace b_bwd;
  ChSpace b_fwd;
};

/// EtaWindow's reusable multi-lane spaces and per-lane meet scratch.
struct DeroutingService::ChProfileScratch {
  std::vector<ClassFactors> factors;  ///< lane j's factors
  ChProfileSpace m_fwd;
  ChProfileSpace b_bwd;
  std::vector<double> dist;
  std::vector<uint32_t> fpos;
  std::vector<uint32_t> bpos;
};

void DeroutingService::set_ch(ChCustomizationCache* cache) {
  ch_ = cache != nullptr ? &cache->index() : nullptr;
  ch_query_ = cache != nullptr ? std::make_unique<ChQuery>(*cache) : nullptr;
  ch_spaces_ = cache != nullptr ? std::make_unique<ChBatchSpaces>() : nullptr;
  if (ch_query_ != nullptr) ch_query_->AttachMetrics(ch_metrics_);
  ch_profile_.reset();
  ch_planes_.clear();
  ch_profile_scratch_ =
      cache != nullptr ? std::make_unique<ChProfileScratch>() : nullptr;
}

void DeroutingService::AttachChMetrics(obs::MetricsRegistry* registry) {
  ch_metrics_ = registry;
  if (ch_query_ != nullptr) ch_query_->AttachMetrics(registry);
}

DeroutingEstimate DeroutingService::Estimate(const DeroutingQuery& query,
                                             const EvCharger& charger) const {
  return Estimate(query, charger,
                  congestion_->ForecastSpeedFactor(RoadClass::kArterial,
                                                   query.now, query.now));
}

DeroutingEstimate DeroutingService::Estimate(
    const DeroutingQuery& query, const EvCharger& charger,
    const CongestionModel::Band& band) const {
  return Estimate(query, charger, band, OnRouteDistance(query));
}

double DeroutingService::OnRouteDistance(const DeroutingQuery& query) {
  return std::min(Distance(query.vehicle_position, query.return_point_a),
                  Distance(query.vehicle_position, query.return_point_b));
}

DeroutingEstimate DeroutingService::Estimate(
    const DeroutingQuery& query, const EvCharger& charger,
    const CongestionModel::Band& band, double on_route) const {
  double to_charger = Distance(query.vehicle_position, charger.position);
  double back = std::min(Distance(charger.position, query.return_point_a),
                         Distance(charger.position, query.return_point_b));
  // Euclidean distances are admissible lower bounds on network distance;
  // the detour factor gives the typical upper estimate. The congestion
  // band converts "distance" into "effective cost distance" (congested
  // roads cost proportionally more time/energy).
  double optimistic = std::max(0.0, to_charger + back - on_route);
  double pessimistic =
      std::max(0.0, (to_charger + back) * detour_factor_ - on_route);
  DeroutingEstimate est;
  est.extra_distance_min_m = optimistic;
  // Slow traffic (band.min) inflates the effective pessimistic cost.
  est.extra_distance_max_m = pessimistic / std::max(band.min, 0.10);
  if (est.extra_distance_max_m < est.extra_distance_min_m) {
    est.extra_distance_max_m = est.extra_distance_min_m;
  }
  double speed = FreeFlowSpeed(RoadClass::kArterial) *
                 (band.min + band.max) * 0.5;
  est.eta_s = to_charger * detour_factor_ / std::max(speed, 1.0);
  return est;
}

SimTime DeroutingService::ExactCostTime(SimTime now) const {
  if (exact_time_bucket_s_ <= 0.0) return now;
  return std::floor(now / exact_time_bucket_s_) * exact_time_bucket_s_;
}

bool DeroutingService::EnsureBackwardSweep(NodeId ra, NodeId rb,
                                           SimTime tau) {
  BackwardKey key{ra, rb, tau};
  if (key == back_key_) {
    ++warm_start_hits_;
    return true;
  }
  // Multi-source seed: both return points at cost 0, so the sweep settles
  // min(d(v -> r_a), d(v -> r_b)) for every v it reaches — the "whichever
  // return point deroutes less" minimum, for all chargers at once.
  NodeId sources[2] = {ra, rb};
  back_search_.StartSweep(std::span<const NodeId>(sources, 2),
                          SweepDirection::kBackward);
  back_key_ = key;
  ++backward_sweep_starts_;
  return false;
}

namespace {

/// Resolved node triple of one derouting query.
struct QueryNodes {
  NodeId m;
  NodeId ra;
  NodeId rb;
};

QueryNodes ResolveNodes(const RoadNetwork& network,
                        const DeroutingQuery& query) {
  QueryNodes nodes;
  nodes.m = query.vehicle_node != kInvalidNode
                ? query.vehicle_node
                : network.NearestNode(query.vehicle_position);
  nodes.ra = query.return_node_a != kInvalidNode
                 ? query.return_node_a
                 : network.NearestNode(query.return_point_a);
  nodes.rb = query.return_node_b != kInvalidNode
                 ? query.return_node_b
                 : network.NearestNode(query.return_point_b);
  return nodes;
}

DeroutingEstimate UnreachableEstimate() {
  DeroutingEstimate est;
  est.extra_distance_min_m = est.extra_distance_max_m = kInfiniteCost;
  est.eta_s = kInfiniteCost;
  return est;
}

/// The per-class weights the exact cost lambda realizes at one cost time.
/// The CH search uses them only to pick the argmin path; costs are refolded
/// over the unpacked edges with the lambda itself.
ChClassWeights ChWeightsAt(const ClassFactors& factors) {
  ChClassWeights weights;
  for (int c = 0; c < kChNumClasses; ++c) weights.w[c] = 1.0 / factors.f[c];
  return weights;
}

/// Speed that turns a congested distance into an ETA, m/s: arterial pace
/// scaled by the cost time's congestion, floored at 1 m/s.
double CruiseSpeed(const ClassFactors& factors) {
  return std::max(
      FreeFlowSpeed(RoadClass::kArterial) * factors[RoadClass::kArterial],
      1.0);
}

}  // namespace

DeroutingEstimate DeroutingService::Exact(const DeroutingQuery& query,
                                          const EvCharger& charger) {
  const QueryNodes nodes = ResolveNodes(*network_, query);
  const size_t num_nodes = network_->NumNodes();
  if (nodes.m >= num_nodes || charger.node >= num_nodes) {
    return UnreachableEstimate();
  }

  // Cost = congested travel distance: length / speed_factor(class, tau),
  // i.e. congested roads count longer, matching Eq. 3's weighted edges.
  // tau is the (possibly bucketed) cost time, shared with ExactBatch so
  // both fidelities accumulate the same doubles. The factors are priced
  // once; the lambda captures them by reference so std::function keeps
  // it in its small buffer (no allocation).
  const SimTime tau = ExactCostTime(query.now);
  const ClassFactors factors = congestion_->ActualFactors(tau);
  auto cost = [&factors](const Arc& e) { return factors.Cost(e); };

  // Outbound leg: single-target forward sweep (stops at the charger).
  NodeId fwd_targets[1] = {charger.node};
  search_.OneToMany(nodes.m, std::span<const NodeId>(fwd_targets, 1), cost);
  const double to_b = search_.CostTo(charger.node);
  if (!std::isfinite(to_b)) return UnreachableEstimate();

  // Return leg + direct cost from the shared backward sweep: extending to
  // {b, m} settles min(d(b -> r_a), d(b -> r_b)) and the on-route cost
  // d(m -> {r_a, r_b}) in one pass.
  EnsureBackwardSweep(nodes.ra, nodes.rb, tau);
  NodeId back_targets[2] = {charger.node, nodes.m};
  back_search_.ExtendSweep(std::span<const NodeId>(back_targets, 2), cost);
  const double back = back_search_.CostTo(charger.node);
  const double direct = back_search_.CostTo(nodes.m);

  double extra = to_b + (std::isfinite(back) ? back : 0.0) -
                 (std::isfinite(direct) ? direct : 0.0);
  extra = std::max(0.0, extra);
  DeroutingEstimate est;
  est.extra_distance_min_m = est.extra_distance_max_m = extra;
  est.eta_s = to_b / CruiseSpeed(factors);
  return est;
}

bool DeroutingService::ChBatchExact(NodeId m, NodeId ra, NodeId rb,
                                    std::span<const ChargerRef> chargers,
                                    const ClassFactors& factors,
                                    std::vector<DeroutingEstimate>* out) {
  const size_t num_nodes = network_->NumNodes();
  auto cost = [&factors](const Arc& e) { return factors.Cost(e); };
  if (!ch_query_->UsePublished(ChWeightsAt(factors))) {
    return false;
  }
  ChBatchSpaces& sp = *ch_spaces_;

  // Shared endpoint spaces: one forward space for the vehicle, one backward
  // space per return point. Every charger leg below is a meet against one
  // of these plus one per-charger space — for a refine_limit-sized batch
  // that is 3 + 2k half-spaces instead of 3k bidirectional searches.
  const bool m_ok = m < num_nodes;
  const bool ra_ok = ra < num_nodes;
  const bool rb_ok = rb < num_nodes;
  if (m_ok &&
      !ch_query_->BuildSpace(m, SweepDirection::kForward, &sp.m_fwd)) {
    return false;
  }
  if (ra_ok &&
      !ch_query_->BuildSpace(ra, SweepDirection::kBackward, &sp.ra_bwd)) {
    return false;
  }
  if (rb_ok &&
      !ch_query_->BuildSpace(rb, SweepDirection::kBackward, &sp.rb_bwd)) {
    return false;
  }
  const auto return_cost = [&](const ChSpace& from_fwd) {
    const double ca =
        ra_ok ? ChExactPathCost(ch_query_.get(), *network_, from_fwd,
                                sp.ra_bwd, cost, SweepDirection::kBackward,
                                &ch_edges_)
              : kInfiniteCost;
    const double cb =
        rb_ok ? ChExactPathCost(ch_query_.get(), *network_, from_fwd,
                                sp.rb_bwd, cost, SweepDirection::kBackward,
                                &ch_edges_)
              : kInfiniteCost;
    return std::min(ca, cb);
  };

  const double direct = m_ok ? return_cost(sp.m_fwd) : kInfiniteCost;
  const double cruise = CruiseSpeed(factors);
  for (ChargerRef charger : chargers) {
    const NodeId b = charger->node;
    double to_b = kInfiniteCost;
    if (m_ok && b < num_nodes) {
      if (!ch_query_->BuildSpace(b, SweepDirection::kBackward, &sp.b_bwd)) {
        return false;
      }
      to_b = ChExactPathCost(ch_query_.get(), *network_, sp.m_fwd, sp.b_bwd,
                             cost, SweepDirection::kForward, &ch_edges_);
    }
    if (!std::isfinite(to_b)) {
      out->push_back(UnreachableEstimate());
      continue;
    }
    if (!ch_query_->BuildSpace(b, SweepDirection::kForward, &sp.b_fwd)) {
      return false;
    }
    const double back = return_cost(sp.b_fwd);
    double extra = to_b + (std::isfinite(back) ? back : 0.0) -
                   (std::isfinite(direct) ? direct : 0.0);
    extra = std::max(0.0, extra);
    DeroutingEstimate est;
    est.extra_distance_min_m = est.extra_distance_max_m = extra;
    est.eta_s = to_b / cruise;
    out->push_back(est);
  }
  return true;
}

BatchSweepStats DeroutingService::ExactBatch(
    const DeroutingQuery& query, std::span<const ChargerRef> chargers,
    DeroutingBatchScratch* scratch, std::vector<DeroutingEstimate>* out) {
  BatchSweepStats stats;
  stats.targets = chargers.size();
  out->clear();
  if (chargers.empty()) return stats;

  const QueryNodes nodes = ResolveNodes(*network_, query);
  const size_t num_nodes = network_->NumNodes();
  const SimTime tau = ExactCostTime(query.now);
  const ClassFactors factors = congestion_->ActualFactors(tau);
  auto cost = [&factors](const Arc& e) { return factors.Cost(e); };

  // The CH batch serves when the cache has the plane published and the
  // hierarchy accepts the space builder; otherwise the Dijkstra sweep below
  // gives the same bits.
  if (ch_ != nullptr &&
      ChBatchExact(nodes.m, nodes.ra, nodes.rb, chargers, factors, out)) {
    return stats;
  }
  out->clear();

  // One forward sweep covers every outbound leg: it stops as soon as all
  // distinct charger nodes are settled, instead of re-settling the inner
  // ball around m once per candidate. Invalid ids are skipped by the sweep
  // and read back as unreachable.
  std::vector<NodeId>& targets = scratch->targets;
  targets.clear();
  for (ChargerRef charger : chargers) targets.push_back(charger->node);
  if (nodes.m < num_nodes) {
    search_.OneToMany(nodes.m, std::span<const NodeId>(targets), cost);
  }

  // One backward extension covers every return leg plus the direct cost
  // (m is just one more target of the multi-source return sweep).
  stats.warm_start = EnsureBackwardSweep(nodes.ra, nodes.rb, tau);
  targets.push_back(nodes.m);
  back_search_.ExtendSweep(std::span<const NodeId>(targets), cost);
  targets.pop_back();
  const double direct =
      nodes.m < num_nodes ? back_search_.CostTo(nodes.m) : kInfiniteCost;

  const double cruise = CruiseSpeed(factors);
  for (ChargerRef charger : chargers) {
    const NodeId b = charger->node;
    const double to_b = nodes.m < num_nodes && b < num_nodes
                            ? search_.CostTo(b)
                            : kInfiniteCost;
    if (!std::isfinite(to_b)) {
      out->push_back(UnreachableEstimate());
      continue;
    }
    const double back = back_search_.CostTo(b);
    double extra = to_b + (std::isfinite(back) ? back : 0.0) -
                   (std::isfinite(direct) ? direct : 0.0);
    extra = std::max(0.0, extra);
    DeroutingEstimate est;
    est.extra_distance_min_m = est.extra_distance_max_m = extra;
    est.eta_s = to_b / cruise;
    out->push_back(est);
  }
  return stats;
}

bool DeroutingService::EtaWindow(const DeroutingQuery& query,
                                 const EvCharger& charger, size_t buckets,
                                 std::vector<double>* etas_s) {
  etas_s->clear();
  if (ch_ == nullptr || buckets == 0) return false;
  // Multi-bucket windows only mean something under time bucketing (lane j
  // IS bucket j); a single lane degenerates to the current cost time.
  if (buckets > 1 && exact_time_bucket_s_ <= 0.0) return false;
  const QueryNodes nodes = ResolveNodes(*network_, query);
  const size_t num_nodes = network_->NumNodes();
  if (nodes.m >= num_nodes || charger.node >= num_nodes) return false;
  const SimTime tau0 = ExactCostTime(query.now);

  // Window planes come from the shared cache through the batch's ChQuery
  // and are built on a miss: the window exists to price the buckets this
  // vehicle's corridor (and every other worker's batches) will read, so
  // its builds count as this worker's customizations.
  ChProfileScratch& ps = *ch_profile_scratch_;
  ps.factors.resize(buckets);
  ch_planes_.clear();
  for (size_t j = 0; j < buckets; ++j) {
    const SimTime tau = tau0 + static_cast<double>(j) * exact_time_bucket_s_;
    ps.factors[j] = congestion_->ActualFactors(tau);
    ch_query_->EnsureCustomized(ChWeightsAt(ps.factors[j]));
    ch_planes_.push_back(ch_query_->plane());
  }

  if (ch_profile_ == nullptr) {
    ch_profile_ = std::make_unique<ChProfileQuery>(*ch_);
  }
  ch_profile_->SetPlanes(ch_planes_);
  if (!ch_profile_->BuildSpace(nodes.m, SweepDirection::kForward, &ps.m_fwd)) {
    return false;
  }
  if (!ch_profile_->BuildSpace(charger.node, SweepDirection::kBackward,
                               &ps.b_bwd)) {
    return false;
  }
  ps.dist.resize(buckets);
  ps.fpos.resize(buckets);
  ps.bpos.resize(buckets);
  ch_profile_->MeetSpaces(ps.m_fwd, ps.b_bwd, ps.dist, ps.fpos, ps.bpos);

  etas_s->resize(buckets);
  for (size_t j = 0; j < buckets; ++j) {
    if (!(ps.dist[j] < kInfiniteCost)) {
      (*etas_s)[j] = kInfiniteCost;
      continue;
    }
    ch_profile_->UnpackMeet(ps.m_fwd, ps.fpos[j], ps.b_bwd, ps.bpos[j], j,
                            &ch_edges_);
    // Refold lane j the way the reference forward sweep at tau_j would
    // have accumulated it, then convert to seconds — exactly Exact()'s
    // eta_s at that bucket.
    const ClassFactors& factors = ps.factors[j];
    double acc = 0.0;
    for (EdgeId e : ch_edges_) acc = acc + factors.Cost(network_->arc(e));
    (*etas_s)[j] = acc / CruiseSpeed(factors);
  }
  return true;
}

}  // namespace ecocharge
