#include "traffic/derouting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace ecocharge {
namespace {

/// Exact()'s decomposition rebuilt from DijkstraSearch driven by the
/// per-arc model call, independent of ClassFactors: d(m -> b) by a
/// single-target forward sweep, min(d(b -> r_a), d(b -> r_b)) and the
/// direct cost by one backward sweep seeded from both return points.
DeroutingEstimate PerArcReference(const RoadNetwork& network,
                                  const CongestionModel& congestion,
                                  NodeId m, NodeId ra, NodeId rb, NodeId b,
                                  SimTime tau) {
  auto cost = [&congestion, tau](const Arc& e) {
    return e.length_m / congestion.ActualSpeedFactor(e.road_class, tau);
  };
  DeroutingEstimate est;
  DijkstraSearch forward(network);
  NodeId fwd_targets[1] = {b};
  forward.OneToMany(m, std::span<const NodeId>(fwd_targets, 1), cost);
  const double to_b = forward.CostTo(b);
  if (!std::isfinite(to_b)) {
    est.extra_distance_min_m = est.extra_distance_max_m = kInfiniteCost;
    est.eta_s = kInfiniteCost;
    return est;
  }
  DijkstraSearch backward(network);
  NodeId sources[2] = {ra, rb};
  backward.StartSweep(std::span<const NodeId>(sources, 2),
                      SweepDirection::kBackward);
  NodeId back_targets[2] = {b, m};
  backward.ExtendSweep(std::span<const NodeId>(back_targets, 2), cost);
  const double back = backward.CostTo(b);
  const double direct = backward.CostTo(m);
  const double extra = to_b + (std::isfinite(back) ? back : 0.0) -
                       (std::isfinite(direct) ? direct : 0.0);
  est.extra_distance_min_m = est.extra_distance_max_m = std::max(0.0, extra);
  const double cruise =
      FreeFlowSpeed(RoadClass::kArterial) *
      congestion.ActualSpeedFactor(RoadClass::kArterial, tau);
  est.eta_s = to_b / std::max(cruise, 1.0);
  return est;
}

bool SameBits(const DeroutingEstimate& a, const DeroutingEstimate& b) {
  return std::memcmp(&a, &b, sizeof(DeroutingEstimate)) == 0;
}

class DeroutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridNetworkOptions opts;
    opts.nx = 12;
    opts.ny = 12;
    opts.spacing_m = 500.0;
    opts.jitter_fraction = 0.05;
    opts.seed = 4;
    network_ = MakeGridNetwork(opts).MoveValueUnsafe();
    congestion_ = std::make_unique<CongestionModel>(9);
    service_ = std::make_unique<DeroutingService>(network_, congestion_.get());
  }

  DeroutingQuery QueryAt(NodeId m, NodeId ra, NodeId rb,
                         SimTime now = 10.0 * kSecondsPerHour) {
    DeroutingQuery q;
    q.vehicle_node = m;
    q.vehicle_position = network_->NodePosition(m);
    q.return_node_a = ra;
    q.return_point_a = network_->NodePosition(ra);
    q.return_node_b = rb;
    q.return_point_b = network_->NodePosition(rb);
    q.now = now;
    return q;
  }

  EvCharger ChargerAt(NodeId node) {
    EvCharger c;
    c.id = 3;
    c.node = node;
    c.position = network_->NodePosition(node);
    return c;
  }

  std::shared_ptr<RoadNetwork> network_;
  std::unique_ptr<CongestionModel> congestion_;
  std::unique_ptr<DeroutingService> service_;
};

TEST_F(DeroutingTest, ChargerOnRouteCostsNothingExtra) {
  // Vehicle at node 0, returning to node 2 (same row); charger at node 1
  // lies between them: extra cost ~0 (paths are near-collinear).
  DeroutingQuery q = QueryAt(0, 2, 2);
  DeroutingEstimate exact = service_->Exact(q, ChargerAt(1));
  EXPECT_LT(exact.extra_distance_min_m, 400.0);
}

TEST_F(DeroutingTest, OffRouteChargerCostsExtra) {
  // Charger far off the direct route.
  DeroutingQuery q = QueryAt(0, 2, 2);
  NodeId far = 11 * 12 + 11;  // opposite corner
  DeroutingEstimate exact = service_->Exact(q, ChargerAt(far));
  EXPECT_GT(exact.extra_distance_min_m, 5000.0);
  EXPECT_GT(exact.eta_s, 0.0);
}

TEST_F(DeroutingTest, EstimateLowerBoundsNeverExceedExactByMuch) {
  // The optimistic estimate (Euclidean-based) must not exceed the exact
  // network cost: Euclidean is admissible, and the on-route subtraction
  // in the estimate uses a lower bound of the direct distance.
  Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    NodeId m = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    NodeId ra = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    NodeId b = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    DeroutingQuery q = QueryAt(m, ra, ra);
    EvCharger charger = ChargerAt(b);
    DeroutingEstimate est = service_->Estimate(q, charger);
    DeroutingEstimate exact = service_->Exact(q, charger);
    EXPECT_LE(est.extra_distance_min_m, exact.extra_distance_min_m * 1.05 +
                                            1500.0)
        << "m=" << m << " ra=" << ra << " b=" << b;
  }
}

TEST_F(DeroutingTest, EstimateIntervalIsOrdered) {
  Rng rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    NodeId m = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    NodeId ra = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    NodeId b = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    DeroutingEstimate est =
        service_->Estimate(QueryAt(m, ra, ra), ChargerAt(b));
    EXPECT_LE(est.extra_distance_min_m, est.extra_distance_max_m);
    EXPECT_GE(est.extra_distance_min_m, 0.0);
    EXPECT_GE(est.eta_s, 0.0);
  }
}

TEST_F(DeroutingTest, ExactMatchesManualDecomposition) {
  // Exact derouting = d(m->b) + min(d(b->ra), d(b->rb)) - min(d(m->ra),
  // d(m->rb)) under the same congested edge costs.
  NodeId m = 0, ra = 11, rb = 12, b_node = 13;
  SimTime now = 10.0 * kSecondsPerHour;
  DeroutingEstimate exact =
      service_->Exact(QueryAt(m, ra, rb, now), ChargerAt(b_node));

  DijkstraSearch search(*network_);
  auto cost = [&](const Arc& e) {
    return e.length_m / congestion_->ActualSpeedFactor(e.road_class, now);
  };
  double to_b = search.AStar(m, b_node, cost).cost;
  double back = std::min(search.AStar(b_node, ra, cost).cost,
                         search.AStar(b_node, rb, cost).cost);
  double direct = std::min(search.AStar(m, ra, cost).cost,
                           search.AStar(m, rb, cost).cost);
  double expected = std::max(0.0, to_b + back - direct);
  EXPECT_NEAR(exact.extra_distance_min_m, expected, 1e-6);
}

TEST_F(DeroutingTest, ExtraCostNeverNegative) {
  Rng rng(14);
  for (int trial = 0; trial < 30; ++trial) {
    NodeId m = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    NodeId ra = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    NodeId rb = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    NodeId b = static_cast<NodeId>(rng.NextBounded(network_->NumNodes()));
    DeroutingEstimate exact =
        service_->Exact(QueryAt(m, ra, rb), ChargerAt(b));
    EXPECT_GE(exact.extra_distance_min_m, 0.0);
  }
}

TEST_F(DeroutingTest, RushHourRaisesExactCost) {
  DeroutingQuery rush = QueryAt(0, 143, 143, kSecondsPerDay +
                                                 8.0 * kSecondsPerHour);
  DeroutingQuery night = QueryAt(0, 143, 143, kSecondsPerDay +
                                                  3.0 * kSecondsPerHour);
  EvCharger c = ChargerAt(77);
  double rush_eta = service_->Exact(rush, c).eta_s;
  double night_eta = service_->Exact(night, c).eta_s;
  EXPECT_GT(rush_eta, night_eta);
}

TEST_F(DeroutingTest, ExactAndBatchMatchPerArcModelReferenceBitwise) {
  // Both exact fidelities share ClassFactors, so comparing them to each
  // other cannot catch a pricing bug; the reference here calls the model
  // per arc at the query's own time. Cost times cross hour boundaries, a
  // weekend and now < 0.
  const SimTime tue = kSecondsPerDay;
  const SimTime times[] = {
      tue + 8.0 * kSecondsPerHour - 1e-6,
      tue + 8.0 * kSecondsPerHour,
      tue + 17.0 * kSecondsPerHour - 0.5,
      5 * kSecondsPerDay + 17.5 * kSecondsPerHour,
      -250.0,
      tue + 16.37 * kSecondsPerHour,
  };
  Rng rng(21);
  const size_t n = network_->NumNodes();
  for (const SimTime now : times) {
    for (int trial = 0; trial < 4; ++trial) {
      const NodeId m = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId ra = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId rb = static_cast<NodeId>(rng.NextBounded(n));
      const DeroutingQuery q = QueryAt(m, ra, rb, now);
      std::vector<EvCharger> chargers;
      for (int i = 0; i < 12; ++i) {
        chargers.push_back(ChargerAt(static_cast<NodeId>(rng.NextBounded(n))));
      }
      std::vector<ChargerRef> refs;
      for (const EvCharger& charger : chargers) refs.push_back(&charger);
      DeroutingBatchScratch scratch;
      service_->ExactBatch(q, refs, &scratch, &scratch.estimates);
      ASSERT_EQ(scratch.estimates.size(), chargers.size());
      for (size_t i = 0; i < chargers.size(); ++i) {
        const DeroutingEstimate want = PerArcReference(
            *network_, *congestion_, m, ra, rb, chargers[i].node, now);
        EXPECT_TRUE(SameBits(service_->Exact(q, chargers[i]), want))
            << "Exact, now=" << now << " charger node " << chargers[i].node;
        EXPECT_TRUE(SameBits(scratch.estimates[i], want))
            << "ExactBatch, now=" << now << " charger node "
            << chargers[i].node;
      }
    }
  }
}

TEST_F(DeroutingTest, SnapsPositionsWhenNodesMissing) {
  DeroutingQuery q;
  q.vehicle_position = network_->NodePosition(5) + Point{10.0, -15.0};
  q.return_point_a = network_->NodePosition(100) + Point{-5.0, 4.0};
  q.return_point_b = q.return_point_a;
  q.now = 10.0 * kSecondsPerHour;
  // Leave node ids invalid; the service must snap.
  DeroutingEstimate exact = service_->Exact(q, ChargerAt(50));
  EXPECT_TRUE(std::isfinite(exact.extra_distance_min_m));
}

}  // namespace
}  // namespace ecocharge
