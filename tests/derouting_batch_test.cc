// ExactBatch vs. per-candidate Exact: the batch must be exactly N
// point-to-point calls fused (bit-identical doubles, not just close), and
// the backward-sweep warm-start memo must serve every further call of one
// query and invalidate exactly at return-pair and cost-time changes.

#include "traffic/derouting.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace ecocharge {
namespace {

bool SameBits(const DeroutingEstimate& a, const DeroutingEstimate& b) {
  return std::memcmp(&a.extra_distance_min_m, &b.extra_distance_min_m,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.extra_distance_max_m, &b.extra_distance_max_m,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.eta_s, &b.eta_s, sizeof(double)) == 0;
}

EvCharger ChargerAt(const RoadNetwork& network, NodeId node) {
  EvCharger c;
  c.node = node;
  if (node < network.NumNodes()) c.position = network.NodePosition(node);
  return c;
}

DeroutingQuery QueryAt(const RoadNetwork& network, NodeId m, NodeId ra,
                       NodeId rb, SimTime now) {
  DeroutingQuery q;
  q.vehicle_node = m;
  q.vehicle_position = network.NodePosition(m);
  q.return_node_a = ra;
  q.return_point_a = network.NodePosition(ra);
  q.return_node_b = rb;
  q.return_point_b = network.NodePosition(rb);
  q.now = now;
  return q;
}

TEST(DeroutingBatchTest, MatchesPerCandidateBitwiseOnRandomGraphs) {
  // Sparse random geometric graphs can have disconnected pockets, so some
  // targets are genuinely unreachable — parity must cover those too.
  for (uint64_t seed : {3u, 7u, 21u}) {
    RandomGeometricOptions opts;
    opts.num_nodes = 300;
    opts.k_nearest = 3;
    opts.seed = seed;
    std::shared_ptr<RoadNetwork> network =
        MakeRandomGeometric(opts).MoveValueUnsafe();
    CongestionModel congestion(seed);
    DeroutingService batched(network, &congestion);
    DeroutingService per_candidate(network, &congestion);

    Rng rng(seed * 100 + 5);
    const size_t n = network->NumNodes();
    for (int trial = 0; trial < 6; ++trial) {
      NodeId m = static_cast<NodeId>(rng.NextBounded(n));
      NodeId ra = static_cast<NodeId>(rng.NextBounded(n));
      NodeId rb = static_cast<NodeId>(rng.NextBounded(n));
      DeroutingQuery q = QueryAt(*network, m, ra, rb,
                                 10.0 * kSecondsPerHour + trial * 600.0);

      std::vector<EvCharger> fleet;
      for (int i = 0; i < 12; ++i) {
        fleet.push_back(
            ChargerAt(*network, static_cast<NodeId>(rng.NextBounded(n))));
      }
      // Coincident-node edges: charger on the vehicle node, on a return
      // node, two chargers sharing a node, and an invalid node id.
      fleet.push_back(ChargerAt(*network, m));
      fleet.push_back(ChargerAt(*network, ra));
      fleet.push_back(fleet.front());
      fleet.push_back(ChargerAt(*network, kInvalidNode));
      std::vector<ChargerRef> refs;
      for (const EvCharger& c : fleet) refs.push_back(&c);

      DeroutingBatchScratch scratch;
      std::vector<DeroutingEstimate> out;
      batched.ExactBatch(q, refs, &scratch, &out);
      ASSERT_EQ(out.size(), fleet.size());
      for (size_t i = 0; i < fleet.size(); ++i) {
        DeroutingEstimate exact = per_candidate.Exact(q, fleet[i]);
        EXPECT_TRUE(SameBits(exact, out[i]))
            << "seed=" << seed << " trial=" << trial << " candidate=" << i
            << " node=" << fleet[i].node;
      }
    }
  }
}

TEST(DeroutingBatchTest, MatchesPerCandidateBitwiseOnEqualSpacingGrid) {
  // No jitter: every arc of a road class costs the same, so both sweeps
  // meet ties at every step, and the batch's multi-target sweep stops at a
  // different frontier than each single-target one. The costs must still
  // agree to the bit.
  GridNetworkOptions opts;
  opts.nx = 14;
  opts.ny = 14;
  opts.spacing_m = 250.0;
  opts.jitter_fraction = 0.0;
  std::shared_ptr<RoadNetwork> network =
      MakeGridNetwork(opts).MoveValueUnsafe();
  CongestionModel congestion(4);
  DeroutingService batched(network, &congestion);
  DeroutingService per_candidate(network, &congestion);

  Rng rng(41);
  const size_t n = network->NumNodes();
  for (int trial = 0; trial < 6; ++trial) {
    const NodeId m = static_cast<NodeId>(rng.NextBounded(n));
    DeroutingQuery q =
        QueryAt(*network, m, static_cast<NodeId>(rng.NextBounded(n)),
                static_cast<NodeId>(rng.NextBounded(n)),
                7.5 * kSecondsPerHour + trial * 900.0);
    // Chargers on the ring of nodes 4 blocks from the vehicle: equal
    // Manhattan distance, the most tied targets a grid has (the ring's
    // east and west tips come twice: duplicate targets).
    const int mx = static_cast<int>(m % opts.nx);
    const int my = static_cast<int>(m / opts.nx);
    std::vector<EvCharger> fleet;
    for (int dx = -4; dx <= 4; ++dx) {
      for (int dy : {4 - std::abs(dx), std::abs(dx) - 4}) {
        const int x = mx + dx;
        const int y = my + dy;
        if (x < 0 || y < 0 || x >= opts.nx || y >= opts.ny) continue;
        fleet.push_back(
            ChargerAt(*network, static_cast<NodeId>(y * opts.nx + x)));
      }
    }
    std::vector<ChargerRef> refs;
    for (const EvCharger& c : fleet) refs.push_back(&c);

    DeroutingBatchScratch scratch;
    std::vector<DeroutingEstimate> out;
    batched.ExactBatch(q, refs, &scratch, &out);
    ASSERT_EQ(out.size(), fleet.size());
    for (size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_TRUE(SameBits(per_candidate.Exact(q, fleet[i]), out[i]))
          << "trial=" << trial << " candidate=" << i
          << " node=" << fleet[i].node;
    }
  }
}

TEST(DeroutingBatchTest, InvalidTargetsReadBackUnreachable) {
  GridNetworkOptions opts;
  opts.nx = 6;
  opts.ny = 6;
  opts.seed = 2;
  std::shared_ptr<RoadNetwork> network =
      MakeGridNetwork(opts).MoveValueUnsafe();
  CongestionModel congestion(2);
  DeroutingService service(network, &congestion);

  DeroutingQuery q = QueryAt(*network, 0, 35, 35, 10.0 * kSecondsPerHour);
  std::vector<EvCharger> fleet = {
      ChargerAt(*network, kInvalidNode),
      ChargerAt(*network, static_cast<NodeId>(network->NumNodes())),
      ChargerAt(*network, 7)};
  std::vector<ChargerRef> refs;
  for (const EvCharger& c : fleet) refs.push_back(&c);

  DeroutingBatchScratch scratch;
  std::vector<DeroutingEstimate> out;
  service.ExactBatch(q, refs, &scratch, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(std::isfinite(out[0].extra_distance_min_m));
  EXPECT_FALSE(std::isfinite(out[1].extra_distance_min_m));
  EXPECT_TRUE(std::isfinite(out[2].extra_distance_min_m));
}

TEST(DeroutingBatchTest, EmptyBatchProducesNoEstimates) {
  GridNetworkOptions opts;
  opts.nx = 4;
  opts.ny = 4;
  std::shared_ptr<RoadNetwork> network =
      MakeGridNetwork(opts).MoveValueUnsafe();
  CongestionModel congestion(1);
  DeroutingService service(network, &congestion);

  DeroutingQuery q = QueryAt(*network, 0, 15, 15, 0.0);
  DeroutingBatchScratch scratch;
  std::vector<DeroutingEstimate> out = {DeroutingEstimate{}};
  BatchSweepStats stats =
      service.ExactBatch(q, std::span<const ChargerRef>(), &scratch, &out);
  EXPECT_EQ(stats.targets, 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.backward_sweep_starts(), 0u);
}

TEST(DeroutingBatchTest, InterleavedExactAndBatchShareOneSweep) {
  // Mixing per-candidate and batched calls on one service must reuse the
  // same backward sweep (one start, then warm hits) and still match an
  // uninterleaved service bit for bit.
  GridNetworkOptions opts;
  opts.nx = 10;
  opts.ny = 10;
  opts.seed = 6;
  std::shared_ptr<RoadNetwork> network =
      MakeGridNetwork(opts).MoveValueUnsafe();
  CongestionModel congestion(6);
  DeroutingService mixed(network, &congestion);
  DeroutingService reference(network, &congestion);

  DeroutingQuery q = QueryAt(*network, 0, 99, 90, 9.0 * kSecondsPerHour);
  std::vector<EvCharger> fleet;
  for (NodeId b : {5u, 37u, 61u, 88u}) fleet.push_back(ChargerAt(*network, b));
  std::vector<ChargerRef> refs;
  for (const EvCharger& c : fleet) refs.push_back(&c);

  DeroutingBatchScratch scratch;
  std::vector<DeroutingEstimate> out;
  DeroutingEstimate first = mixed.Exact(q, fleet[0]);
  mixed.ExactBatch(q, refs, &scratch, &out);
  DeroutingEstimate last = mixed.Exact(q, fleet[3]);

  EXPECT_EQ(mixed.backward_sweep_starts(), 1u);
  EXPECT_EQ(mixed.warm_start_hits(), 2u);
  EXPECT_TRUE(SameBits(first, out[0]));
  EXPECT_TRUE(SameBits(last, out[3]));
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_TRUE(SameBits(reference.Exact(q, fleet[i]), out[i])) << i;
  }
}

class WarmStartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GridNetworkOptions opts;
    opts.nx = 10;
    opts.ny = 10;
    opts.seed = 11;
    network_ = MakeGridNetwork(opts).MoveValueUnsafe();
    congestion_ = std::make_unique<CongestionModel>(11);
    for (NodeId b : {12u, 44u, 77u}) {
      fleet_.push_back(ChargerAt(*network_, b));
    }
    for (const EvCharger& c : fleet_) refs_.push_back(&c);
  }

  BatchSweepStats RunBatch(DeroutingService& service, SimTime now,
                           NodeId ra = 99, NodeId rb = 90) {
    DeroutingQuery q = QueryAt(*network_, 0, ra, rb, now);
    return service.ExactBatch(q, refs_, &scratch_, &out_);
  }

  std::shared_ptr<RoadNetwork> network_;
  std::unique_ptr<CongestionModel> congestion_;
  std::vector<EvCharger> fleet_;
  std::vector<ChargerRef> refs_;
  DeroutingBatchScratch scratch_;
  std::vector<DeroutingEstimate> out_;
};

TEST_F(WarmStartTest, ExactLoopReusesTheBackwardSweep) {
  // A Brute-Force or ground-truth loop: N Exact() calls over one query
  // start the backward sweep once and resume it for every further charger,
  // and a batch over the same query resumes it too.
  DeroutingService service(network_, congestion_.get());
  const SimTime t0 = 8.0 * kSecondsPerHour + 60.0;
  const DeroutingQuery q = QueryAt(*network_, 0, 99, 90, t0);
  for (const EvCharger& c : fleet_) service.Exact(q, c);
  EXPECT_EQ(service.backward_sweep_starts(), 1u);
  EXPECT_EQ(service.warm_start_hits(), fleet_.size() - 1);
  EXPECT_TRUE(RunBatch(service, t0).warm_start);
  EXPECT_EQ(service.backward_sweep_starts(), 1u);
}

TEST_F(WarmStartTest, LaterCostTimeInvalidatesTheMemo) {
  DeroutingService service(network_, congestion_.get());
  const SimTime t0 = 8.0 * kSecondsPerHour + 60.0;
  EXPECT_FALSE(RunBatch(service, t0).warm_start);

  // One second later the realized traffic is priced anew: the sweep
  // restarts...
  const SimTime t1 = t0 + 1.0;
  EXPECT_FALSE(RunBatch(service, t1).warm_start);
  EXPECT_EQ(service.backward_sweep_starts(), 2u);
  EXPECT_EQ(service.warm_start_hits(), 0u);

  // ...and the restarted costs match a cold service queried at that time.
  DeroutingService cold(network_, congestion_.get());
  const std::vector<DeroutingEstimate> warm_path = out_;
  for (size_t i = 0; i < fleet_.size(); ++i) {
    DeroutingQuery q = QueryAt(*network_, 0, 99, 90, t1);
    EXPECT_TRUE(SameBits(cold.Exact(q, fleet_[i]), warm_path[i])) << i;
  }
}

TEST_F(WarmStartTest, ReturnPairChangeInvalidatesTheMemo) {
  DeroutingService service(network_, congestion_.get());

  const SimTime t0 = 8.0 * kSecondsPerHour;
  RunBatch(service, t0, 99, 90);
  EXPECT_FALSE(RunBatch(service, t0, 99, 80).warm_start);
  EXPECT_EQ(service.backward_sweep_starts(), 2u);
  EXPECT_EQ(service.warm_start_hits(), 0u);
}

}  // namespace
}  // namespace ecocharge
