#include "traffic/derouting.h"

#include <algorithm>
#include <cmath>

namespace ecocharge {

DeroutingService::DeroutingService(
    std::shared_ptr<const RoadNetwork> network,
    const CongestionModel* congestion, double detour_factor)
    : network_(std::move(network)),
      congestion_(congestion),
      detour_factor_(detour_factor),
      search_(*network_),
      back_search_(*network_) {}

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

bool DeroutingService::EnsureBackwardSweep(NodeId ra, NodeId rb,
                                           SimTime now) {
  BackwardKey key{ra, rb, now};
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

  // Cost = congested travel distance: length / speed_factor(class, now),
  // i.e. congested roads count longer, matching Eq. 3's weighted edges.
  // ExactBatch prices the same factors, so both fidelities accumulate the
  // same doubles. The factors are priced once; the lambda captures them
  // by reference so std::function keeps it in its small buffer (no
  // allocation).
  const ClassFactors factors = congestion_->ActualFactors(query.now);
  auto cost = [&factors](const Arc& e) { return factors.Cost(e); };

  // Outbound leg: single-target forward sweep (stops at the charger).
  NodeId fwd_targets[1] = {charger.node};
  search_.OneToMany(nodes.m, std::span<const NodeId>(fwd_targets, 1), cost);
  const double to_b = search_.CostTo(charger.node);
  if (!std::isfinite(to_b)) return UnreachableEstimate();

  // Return leg + direct cost from the shared backward sweep: extending to
  // {b, m} settles min(d(b -> r_a), d(b -> r_b)) and the on-route cost
  // d(m -> {r_a, r_b}) in one pass.
  EnsureBackwardSweep(nodes.ra, nodes.rb, query.now);
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

BatchSweepStats DeroutingService::ExactBatch(
    const DeroutingQuery& query, std::span<const ChargerRef> chargers,
    DeroutingBatchScratch* scratch, std::vector<DeroutingEstimate>* out) {
  BatchSweepStats stats;
  stats.targets = chargers.size();
  out->clear();
  if (chargers.empty()) return stats;

  const QueryNodes nodes = ResolveNodes(*network_, query);
  const size_t num_nodes = network_->NumNodes();
  const ClassFactors factors = congestion_->ActualFactors(query.now);
  auto cost = [&factors](const Arc& e) { return factors.Cost(e); };

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
  stats.warm_start = EnsureBackwardSweep(nodes.ra, nodes.rb, query.now);
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

}  // namespace ecocharge
