// Contraction-hierarchy backend: structural invariants of the contraction,
// bitwise query parity against the Dijkstra oracle (distances, unpacked
// paths, and full derouting estimates), customization behavior, and
// snapshot round-trips. Parity here means memcmp-identical doubles — the
// CH backend's contract is "same bits as the exact sweeps", not "close".

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ch/ch_index.h"
#include "ch/ch_query.h"
#include "ch/contraction.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/landmarks.h"
#include "graph/shortest_path.h"
#include "traffic/congestion.h"
#include "traffic/derouting.h"

namespace ecocharge {
namespace {

std::shared_ptr<RoadNetwork> SmallRgg(uint64_t seed, size_t nodes = 300) {
  RandomGeometricOptions opts;
  opts.num_nodes = nodes;
  opts.k_nearest = 3;
  opts.seed = seed;
  return MakeRandomGeometric(opts).MoveValueUnsafe();
}

/// The realized derouting metric at time `tau`, as the exact backend
/// prices it per edge.
EdgeCostFn CongestedCost(const CongestionModel& congestion, SimTime tau) {
  return [&congestion, tau](const Arc& a) {
    return a.length_m / congestion.ActualSpeedFactor(a.road_class, tau);
  };
}

/// The matching CH class-weight vector (multipliers, one per RoadClass).
ChClassWeights CongestedWeights(const CongestionModel& congestion,
                                SimTime tau) {
  ChClassWeights w;
  for (int c = 0; c < kChNumClasses; ++c) {
    w.w[c] = 1.0 / congestion.ActualSpeedFactor(static_cast<RoadClass>(c), tau);
  }
  return w;
}

/// Walks `edges` from `s`, checking consecutive endpoints line up; returns
/// the node sequence (s included).
std::vector<NodeId> NodePathOf(const RoadNetwork& network, NodeId s,
                               const std::vector<EdgeId>& edges) {
  std::vector<NodeId> nodes{s};
  NodeId at = s;
  for (EdgeId e : edges) {
    const Edge rec = network.edge(e);
    EXPECT_EQ(rec.from, at) << "unpacked path is not contiguous";
    at = rec.to;
    nodes.push_back(at);
  }
  return nodes;
}

TEST(ChContractionTest, RanksAreAPermutationAndClosureHolds) {
  auto network = SmallRgg(5);
  ChBuildStats stats;
  auto ch = BuildChIndex(*network, &stats).MoveValueUnsafe();
  ASSERT_EQ(ch->NumNodes(), network->NumNodes());

  std::vector<bool> seen(ch->NumNodes(), false);
  for (NodeId v = 0; v < ch->NumNodes(); ++v) {
    ASSERT_LT(ch->rank(v), ch->NumNodes());
    EXPECT_FALSE(seen[ch->rank(v)]) << "duplicate rank";
    seen[ch->rank(v)] = true;
  }

  // Every original (non-self-loop) arc appears in exactly one search graph,
  // plus the reported shortcut count.
  size_t originals = 0;
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    for (const Arc& a : network->OutArcs(v)) {
      if (a.node != v) ++originals;
    }
  }
  EXPECT_EQ(ch->NumUpArcs() + ch->NumDownArcs(), originals + stats.shortcuts);

  // Up arcs climb, down arcs descend, rows are sorted, and the arc set is
  // closed under lower triangles: for every down-arc (a -> x) and up-arc
  // (x -> b), a != b, the enclosing arc (a -> b) must exist — this closure
  // is the precondition of the customization sweep's exactness.
  for (NodeId x = 0; x < ch->NumNodes(); ++x) {
    const auto ups = ch->UpArcs(x);
    for (size_t i = 0; i < ups.size(); ++i) {
      EXPECT_GT(ch->rank(ups[i].node), ch->rank(x));
      if (i > 0) EXPECT_LE(ups[i - 1].node, ups[i].node);
    }
    const auto downs = ch->DownArcs(x);
    for (size_t i = 0; i < downs.size(); ++i) {
      EXPECT_GT(ch->rank(downs[i].node), ch->rank(x));
      if (i > 0) EXPECT_LE(downs[i - 1].node, downs[i].node);
    }
    for (const ChArc& da : downs) {
      for (const ChArc& ua : ups) {
        if (da.node == ua.node) continue;
        const bool closed =
            ch->rank(da.node) < ch->rank(ua.node)
                ? ch->FindUpArc(da.node, ua.node) != SIZE_MAX
                : ch->FindDownArc(ua.node, da.node) != SIZE_MAX;
        ASSERT_TRUE(closed) << "missing triangle arc " << da.node << " -> "
                            << ua.node << " below apex " << x;
      }
    }
  }
}

TEST(ChQueryTest, DistancesAndPathsMatchDijkstraBitwise) {
  for (uint64_t seed : {2u, 11u}) {
    auto network = SmallRgg(seed);
    auto ch = BuildChIndex(*network).MoveValueUnsafe();
    ChCustomizationCache cache(*ch);
    ChQuery query(cache);
    DijkstraSearch dijkstra(*network);
    CongestionModel congestion(seed);
    std::vector<EdgeId> scratch;

    for (SimTime tau : {0.0, 8.0 * 3600, 17.5 * 3600}) {
      const EdgeCostFn cost = CongestedCost(congestion, tau);
      const ChClassWeights weights = CongestedWeights(congestion, tau);
      for (NodeId s = 1; s < network->NumNodes(); s += 37) {
        const NodeId t = (s * 131) % static_cast<NodeId>(network->NumNodes());
        const PathResult ref = dijkstra.ShortestPath(s, t, cost);
        const double got = ChExactPathCost(&query, *network, s, t, weights,
                                           cost, SweepDirection::kForward,
                                           &scratch);
        if (!ref.Reachable()) {
          EXPECT_EQ(got, kInfiniteCost) << "s=" << s << " t=" << t;
          continue;
        }
        // Same original edges folded in the same association order: the
        // doubles must be identical to the last bit, not merely close.
        EXPECT_EQ(std::memcmp(&got, &ref.cost, sizeof(double)), 0)
            << "s=" << s << " t=" << t << " tau=" << tau << " got=" << got
            << " want=" << ref.cost;
        EXPECT_EQ(NodePathOf(*network, s, scratch), ref.nodes);
      }
    }
  }
}

TEST(ChQueryTest, ElimTreeSpacesMatchSearchBitwise) {
  // The batched derouting path answers every leg from prebuilt
  // elimination-tree label spaces; their customized distances and unpacked
  // paths must be exactly what the bidirectional Search finds.
  for (uint64_t seed : {2u, 11u}) {
    auto network = SmallRgg(seed);
    auto ch = BuildChIndex(*network).MoveValueUnsafe();
    ChCustomizationCache cache(*ch);
    ChQuery query(cache);
    CongestionModel congestion(seed);
    const ChClassWeights weights = CongestedWeights(congestion, 8.0 * 3600);
    query.EnsureCustomized(weights);
    ChSpace fwd, bwd;
    std::vector<EdgeId> search_edges, space_edges;
    size_t finite = 0;
    for (NodeId s = 1; s < network->NumNodes(); s += 29) {
      const NodeId t = (s * 173) % static_cast<NodeId>(network->NumNodes());
      ASSERT_TRUE(query.BuildSpace(s, SweepDirection::kForward, &fwd));
      ASSERT_TRUE(query.BuildSpace(t, SweepDirection::kBackward, &bwd));
      uint32_t fpos = 0;
      uint32_t bpos = 0;
      const double via_space = query.MeetSpaces(fwd, bwd, &fpos, &bpos);
      const double via_search = query.Search(s, t, weights);
      EXPECT_EQ(std::memcmp(&via_space, &via_search, sizeof(double)), 0)
          << "s=" << s << " t=" << t;
      if (!(via_search < kInfiniteCost)) continue;
      ++finite;
      query.UnpackPath(&search_edges);
      query.UnpackMeet(fwd, fpos, bwd, bpos, &space_edges);
      EXPECT_EQ(space_edges, search_edges) << "s=" << s << " t=" << t;
    }
    EXPECT_GT(finite, 0u);
  }
}

TEST(ChQueryTest, UnreachableAndCoincidentEndpoints) {
  // One-way pair: a -> b exists, b -> a does not.
  GraphBuilder builder;
  NodeId a = builder.AddNode({0, 0});
  NodeId b = builder.AddNode({100, 0});
  NodeId c = builder.AddNode({200, 0});
  ASSERT_TRUE(builder.AddEdge(a, b, RoadClass::kLocal).ok());
  ASSERT_TRUE(builder.AddEdge(b, c, RoadClass::kLocal).ok());
  auto network = builder.Build().MoveValueUnsafe();
  auto ch = BuildChIndex(*network).MoveValueUnsafe();
  ChCustomizationCache cache(*ch);
  ChQuery query(cache);

  EXPECT_EQ(query.Search(a, c, kChLengthWeights), 200.0);
  EXPECT_EQ(query.Search(c, a, kChLengthWeights), kInfiniteCost);
  EXPECT_EQ(query.Search(b, a, kChLengthWeights), kInfiniteCost);

  // Coincident endpoints: exactly 0.0 (the sentinel the derouting formulas
  // rely on), and an empty unpacked path.
  const double zero = query.Search(b, b, kChLengthWeights);
  EXPECT_EQ(zero, 0.0);
  std::vector<EdgeId> edges{123};
  query.UnpackPath(&edges);
  EXPECT_TRUE(edges.empty());

  // Out-of-range ids are unreachable, not UB.
  EXPECT_EQ(query.Search(a, 99, kChLengthWeights), kInfiniteCost);
}

TEST(ChQueryTest, StableWeightStreamCustomizesOnce) {
  auto network = SmallRgg(3, 150);
  auto ch = BuildChIndex(*network).MoveValueUnsafe();
  // A one-plane cache: the workspace and its source keep one metric.
  ChCustomizationCache cache(*ch, /*threads=*/0, /*max_planes=*/1);
  ChQuery query(cache);
  CongestionModel congestion(3);

  const ChClassWeights rush = CongestedWeights(congestion, 8.0 * 3600);
  for (NodeId s = 0; s < 30; ++s) {
    query.Search(s, static_cast<NodeId>(149 - s), rush);
  }
  EXPECT_EQ(query.customizations(), 1u);

  // A different traffic bucket re-prices once; returning to it later does
  // not (EnsureCustomized keys on the weight values, not call order)...
  const ChClassWeights night = CongestedWeights(congestion, 2.0 * 3600);
  query.Search(5, 140, night);
  EXPECT_EQ(query.customizations(), 2u);
  query.Search(6, 141, night);
  EXPECT_EQ(query.customizations(), 2u);
  // ...so flipping back does re-price: the workspace keeps one metric.
  query.Search(7, 142, rush);
  EXPECT_EQ(query.customizations(), 3u);
}

TEST(ChDeroutingTest, ExactBatchMatchesDijkstraBackendBitwise) {
  for (uint64_t seed : {7u, 13u}) {
    auto network = SmallRgg(seed);
    auto ch = BuildChIndex(*network).MoveValueUnsafe();
    CongestionModel congestion(seed);
    ChCustomizationCache cache(*ch);
    DeroutingService oracle(network, &congestion);
    DeroutingService hierarchy(network, &congestion);
    hierarchy.set_ch(&cache);
    ASSERT_EQ(hierarchy.backend(), DeroutingBackend::kCh);

    DeroutingBatchScratch oracle_scratch, ch_scratch;
    std::vector<EvCharger> chargers;
    for (NodeId v = 3; v < network->NumNodes(); v += 17) {
      EvCharger charger;
      charger.node = v;
      charger.position = network->NodePosition(v);
      chargers.push_back(charger);
    }
    std::vector<ChargerRef> refs;
    for (const EvCharger& charger : chargers) refs.push_back(&charger);

    for (SimTime tau : {6.5 * 3600, 18.0 * 3600}) {
      DeroutingQuery q;
      q.vehicle_node = 1;
      q.vehicle_position = network->NodePosition(1);
      q.return_node_a = 50;
      q.return_point_a = network->NodePosition(50);
      q.return_node_b = 120;
      q.return_point_b = network->NodePosition(120);
      q.now = tau;

      std::vector<DeroutingEstimate> want, got;
      oracle.ExactBatch(q, refs, &oracle_scratch, &want);
      hierarchy.ExactBatch(q, refs, &ch_scratch, &got);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(DeroutingEstimate)), 0)
            << "charger " << i << " tau " << tau;
      }
    }
  }
}

TEST(ChSnapshotTest, RoundTripsThroughSnapshotWithQueryParity) {
  auto network = SmallRgg(19, 200);
  std::shared_ptr<ChIndex> built = BuildChIndex(*network).MoveValueUnsafe();

  const std::string path = ::testing::TempDir() + "/ch_roundtrip.ecgs";
  const ChSnapshotViews views = ToSnapshotViews(built);
  ASSERT_TRUE(SaveSnapshot(*network, path, nullptr, &views).ok());

  auto loaded = LoadSnapshotWithAux(path).MoveValueUnsafe();
  ASSERT_TRUE(loaded.ch.has_value());
  auto ch = ChIndexFromSnapshot(*loaded.ch, loaded.network->NumEdges())
                .MoveValueUnsafe();
  ASSERT_EQ(ch->NumNodes(), built->NumNodes());
  ASSERT_EQ(ch->NumUpArcs(), built->NumUpArcs());
  ASSERT_EQ(ch->NumDownArcs(), built->NumDownArcs());

  // The mmap-ed hierarchy must answer exactly like the built one.
  ChCustomizationCache fresh_cache(*built), reloaded_cache(*ch);
  ChQuery fresh(fresh_cache), reloaded(reloaded_cache);
  CongestionModel congestion(19);
  const ChClassWeights weights = CongestedWeights(congestion, 9.0 * 3600);
  std::vector<EdgeId> scratch_a, scratch_b;
  const EdgeCostFn cost = CongestedCost(congestion, 9.0 * 3600);
  for (NodeId s = 0; s < 200; s += 23) {
    const NodeId t = (s * 71 + 5) % 200;
    const double a = ChExactPathCost(&fresh, *network, s, t, weights, cost,
                                     SweepDirection::kForward, &scratch_a);
    const double b = ChExactPathCost(&reloaded, *loaded.network, s, t, weights,
                                     cost, SweepDirection::kForward,
                                     &scratch_b);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "s=" << s;
    EXPECT_EQ(scratch_a, scratch_b);
  }
}

}  // namespace
}  // namespace ecocharge
