#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace ecocharge {
namespace {

std::shared_ptr<RoadNetwork> SmallGrid(uint64_t seed = 3) {
  GridNetworkOptions opts;
  opts.nx = 8;
  opts.ny = 8;
  opts.spacing_m = 200.0;
  opts.seed = seed;
  return MakeGridNetwork(opts).MoveValueUnsafe();
}

/// Forward sweep from `source` until `target` settles; its cost, or
/// kInfiniteCost when `target` is unreachable or invalid.
double SweepCost(DijkstraSearch& search, NodeId source, NodeId target,
                 const EdgeCostFn& cost = LengthCost) {
  const NodeId targets[] = {target};
  return search.OneToMany(source, targets, cost) == 1 ? search.CostTo(target)
                                                      : kInfiniteCost;
}

/// Every node as a target: the sweep settles the whole reachable graph.
std::vector<NodeId> AllNodes(const RoadNetwork& network) {
  std::vector<NodeId> nodes(network.NumNodes());
  for (NodeId v = 0; v < nodes.size(); ++v) nodes[v] = v;
  return nodes;
}

TEST(DijkstraTest, TrivialSourceEqualsTarget) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  EXPECT_EQ(SweepCost(search, 5, 5), 0.0);
  EXPECT_EQ(search.last_settled_count(), 1u);
  PathResult r = search.AStar(5, 5);
  EXPECT_TRUE(r.Reachable());
  EXPECT_EQ(r.cost, 0.0);
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0], 5u);
}

TEST(DijkstraTest, InvalidNodesUnreachable) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  EXPECT_FALSE(search.AStar(0, 100000).Reachable());
  EXPECT_FALSE(search.AStar(100000, 0).Reachable());
  EXPECT_EQ(SweepCost(search, 0, 100000), kInfiniteCost);
  EXPECT_EQ(SweepCost(search, 100000, 0), kInfiniteCost);
  EXPECT_EQ(search.last_settled_count(), 0u);
}

TEST(DijkstraTest, PathEndpointsAndContinuity) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  PathResult r = search.AStar(0, 63);
  ASSERT_TRUE(r.Reachable());
  EXPECT_EQ(r.nodes.front(), 0u);
  EXPECT_EQ(r.nodes.back(), 63u);
  // Consecutive nodes must be joined by an arc; costs must sum up.
  double total = 0.0;
  for (size_t i = 1; i < r.nodes.size(); ++i) {
    bool found = false;
    for (const Arc& a : network->OutArcs(r.nodes[i - 1])) {
      if (a.node == r.nodes[i]) {
        total += a.length_m;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no arc " << r.nodes[i - 1] << "->" << r.nodes[i];
  }
  EXPECT_NEAR(total, r.cost, 1e-9);
}

TEST(DijkstraTest, MatchesBellmanFordOnRandomPairs) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    NodeId t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    const double sweep = SweepCost(search, s, t);
    PathResult bf = BellmanFordShortestPath(*network, s, t);
    ASSERT_EQ(sweep < kInfiniteCost, bf.Reachable());
    if (bf.Reachable()) {
      EXPECT_NEAR(sweep, bf.cost, 1e-6) << s << "->" << t;
    }
  }
}

TEST(AStarTest, MatchesDijkstraOnLengthCost) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    NodeId t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    double dij = SweepCost(search, s, t);
    double astar = search.AStar(s, t).cost;
    EXPECT_NEAR(dij, astar, 1e-6);
  }
}

TEST(AStarTest, SettlesNoMoreThanDijkstra) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  size_t dij_settled = 0, astar_settled = 0;
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    NodeId t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    SweepCost(search, s, t);
    dij_settled += search.last_settled_count();
    search.AStar(s, t);
    astar_settled += search.last_settled_count();
  }
  EXPECT_LE(astar_settled, dij_settled);
}

TEST(AStarTest, TimeCostWithScaledHeuristicIsExact) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  // For time costs the admissible heuristic divides by the max speed.
  double inv_max_speed = 1.0 / FreeFlowSpeed(RoadClass::kHighway);
  auto free_flow = [](const Arc& a) { return a.FreeFlowSeconds(); };
  Rng rng(15);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    NodeId t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    double dij = SweepCost(search, s, t, free_flow);
    double astar = search.AStar(s, t, free_flow, inv_max_speed).cost;
    EXPECT_NEAR(dij, astar, 1e-6);
  }
}

TEST(OneToManyTest, RespectsCostBound) {
  // The sweep stops once its farthest target settles: it settles at most
  // the nodes no farther than that target, and leaves some unreached.
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  NodeId targets[] = {1, 9};
  ASSERT_EQ(search.OneToMany(0, targets, LengthCost), 2u);
  const double bound = std::max(search.CostTo(1), search.CostTo(9));
  size_t within_bound = 0;
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    if (BellmanFordShortestPath(*network, 0, v).cost <= bound) ++within_bound;
  }
  EXPECT_GT(search.last_settled_count(), 0u);
  EXPECT_LE(search.last_settled_count(), within_bound);
  bool found_unreached = false;
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    if (search.CostTo(v) == kInfiniteCost) found_unreached = true;
  }
  EXPECT_TRUE(found_unreached);
}

TEST(OneToManyTest, UnboundedCoversWholeNetwork) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  const std::vector<NodeId> all = AllNodes(*network);
  EXPECT_EQ(search.OneToMany(0, all, LengthCost), network->NumNodes());
  EXPECT_EQ(search.last_settled_count(), network->NumNodes());
}

TEST(OneToManyTest, CostsMatchPointToPoint) {
  auto network = SmallGrid();
  DijkstraSearch one_to_many(*network);
  DijkstraSearch point(*network);
  one_to_many.OneToMany(7, AllNodes(*network), LengthCost);
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    NodeId t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    double expected = point.AStar(7, t).cost;
    EXPECT_NEAR(one_to_many.CostTo(t), expected, 1e-9);
  }
}

TEST(OneToManyTest, TargetSetMatchesPointToPointAndExitsEarly) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  // Targets near the source: the sweep must stop well before settling the
  // whole 64-node grid.
  NodeId targets[] = {1, 8, 9, 2};
  size_t found = search.OneToMany(
      0, std::span<const NodeId>(targets), LengthCost);
  EXPECT_EQ(found, 4u);
  EXPECT_LT(search.last_settled_count(), network->NumNodes());
  for (NodeId t : targets) {
    EXPECT_NEAR(search.CostTo(t),
                BellmanFordShortestPath(*network, 0, t).cost, 1e-9);
  }
}

TEST(OneToManyTest, TargetSetSkipsInvalidAndDuplicateIds) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  NodeId targets[] = {5, 5, kInvalidNode, 12,
                      static_cast<NodeId>(network->NumNodes())};
  size_t found = search.OneToMany(
      0, std::span<const NodeId>(targets), LengthCost);
  // Settled entries: node 5 counts per occurrence, invalid ids never do.
  EXPECT_EQ(found, 3u);
  EXPECT_LT(search.CostTo(5), kInfiniteCost);
  EXPECT_LT(search.CostTo(12), kInfiniteCost);
}

TEST(SweepTest, ResumedSweepMatchesOneShotBitwise) {
  auto network = SmallGrid();
  DijkstraSearch resumed(*network);
  DijkstraSearch one_shot(*network);
  NodeId near_targets[] = {1, 9};
  NodeId far_targets[] = {63, 56};
  NodeId all_targets[] = {1, 9, 63, 56};

  NodeId source[] = {0};
  resumed.StartSweep(std::span<const NodeId>(source));
  resumed.ExtendSweep(std::span<const NodeId>(near_targets), LengthCost);
  resumed.ExtendSweep(std::span<const NodeId>(far_targets), LengthCost);
  one_shot.OneToMany(0, std::span<const NodeId>(all_targets), LengthCost);

  // Resuming only decides when relaxation stops, never what it computes:
  // the settled doubles are identical, not just close.
  for (NodeId t : all_targets) {
    EXPECT_EQ(resumed.CostTo(t), one_shot.CostTo(t)) << "target " << t;
  }
  // Re-requesting already-settled targets is a no-op extension.
  size_t found =
      resumed.ExtendSweep(std::span<const NodeId>(near_targets), LengthCost);
  EXPECT_EQ(found, 2u);
}

TEST(SweepTest, BackwardSweepSettlesCostsTowardTheSource) {
  auto network = SmallGrid();
  DijkstraSearch sweep(*network);
  DijkstraSearch point(*network);
  NodeId sources[] = {63};
  sweep.StartSweep(std::span<const NodeId>(sources),
                   SweepDirection::kBackward);
  Rng rng(27);
  for (int trial = 0; trial < 10; ++trial) {
    NodeId v = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    NodeId targets[] = {v};
    sweep.ExtendSweep(std::span<const NodeId>(targets), LengthCost);
    // A backward sweep over the in-adjacency settles d(v -> 63).
    EXPECT_NEAR(sweep.CostTo(v), point.AStar(v, 63).cost, 1e-6)
        << "v=" << v;
  }
}

TEST(SweepTest, MultiSourceSweepIsMinOverSingleSources) {
  auto network = SmallGrid();
  DijkstraSearch multi(*network);
  DijkstraSearch single_a(*network);
  DijkstraSearch single_b(*network);
  NodeId both[] = {7, 56};
  NodeId only_a[] = {7};
  NodeId only_b[] = {56};
  multi.StartSweep(std::span<const NodeId>(both), SweepDirection::kBackward);
  single_a.StartSweep(std::span<const NodeId>(only_a),
                      SweepDirection::kBackward);
  single_b.StartSweep(std::span<const NodeId>(only_b),
                      SweepDirection::kBackward);
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    NodeId targets[] = {v};
    multi.ExtendSweep(std::span<const NodeId>(targets), LengthCost);
    single_a.ExtendSweep(std::span<const NodeId>(targets), LengthCost);
    single_b.ExtendSweep(std::span<const NodeId>(targets), LengthCost);
    EXPECT_DOUBLE_EQ(multi.CostTo(v),
                     std::min(single_a.CostTo(v), single_b.CostTo(v)))
        << "v=" << v;
  }
}

TEST(DijkstraTest, EpochReuseIsolatesQueries) {
  auto network = SmallGrid();
  DijkstraSearch search(*network);
  const std::vector<NodeId> all = AllNodes(*network);
  search.OneToMany(0, all, LengthCost);
  double d_before = search.CostTo(42);
  // A short sweep from elsewhere must not leak stale distances.
  EXPECT_EQ(SweepCost(search, 63, 63), 0.0);
  EXPECT_EQ(search.CostTo(42), kInfiniteCost);
  search.OneToMany(0, all, LengthCost);
  EXPECT_NEAR(search.CostTo(42), d_before, 1e-12);
}

TEST(DijkstraTest, CustomCostChangesRoute) {
  // Two routes a->b: direct long local road vs detour over fast highway.
  GraphBuilder builder;
  NodeId a = builder.AddNode({0, 0});
  NodeId b = builder.AddNode({1000, 0});
  NodeId c = builder.AddNode({500, 400});
  ASSERT_TRUE(builder.AddEdge(a, b, RoadClass::kLocal, 1000.0).ok());
  ASSERT_TRUE(builder.AddEdge(a, c, RoadClass::kHighway, 700.0).ok());
  ASSERT_TRUE(builder.AddEdge(c, b, RoadClass::kHighway, 700.0).ok());
  auto network = builder.Build().MoveValueUnsafe();
  DijkstraSearch search(*network);
  // By length the direct road wins.
  EXPECT_EQ(search.AStar(a, b, LengthCost).nodes.size(), 2u);
  EXPECT_EQ(SweepCost(search, a, b, LengthCost), 1000.0);
  // By time the highway detour wins (1400m @ 120km/h < 1000m @ 30km/h).
  auto free_flow = [](const Arc& a) { return a.FreeFlowSeconds(); };
  const double inv_max_speed = 1.0 / FreeFlowSpeed(RoadClass::kHighway);
  EXPECT_EQ(search.AStar(a, b, free_flow, inv_max_speed).nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(SweepCost(search, a, b, free_flow),
                   1400.0 / FreeFlowSpeed(RoadClass::kHighway));
}

}  // namespace
}  // namespace ecocharge
