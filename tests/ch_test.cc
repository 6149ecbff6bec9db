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
#include "graph/shortest_path.h"
#include "tests/test_util.h"
#include "traffic/congestion.h"
#include "traffic/derouting.h"

namespace ecocharge {
namespace {

using testing_util::CongestedWeights;
using testing_util::SmallRgg;

/// The realized derouting metric at time `tau`, as the exact backend
/// prices it per edge.
EdgeCostFn CongestedCost(const CongestionModel& congestion, SimTime tau) {
  return [&congestion, tau](const Arc& a) {
    return a.length_m / congestion.ActualSpeedFactor(a.road_class, tau);
  };
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
      if (i > 0) {
        EXPECT_LE(ups[i - 1].node, ups[i].node);
      }
    }
    const auto downs = ch->DownArcs(x);
    for (size_t i = 0; i < downs.size(); ++i) {
      EXPECT_GT(ch->rank(downs[i].node), ch->rank(x));
      if (i > 0) {
        EXPECT_LE(downs[i - 1].node, downs[i].node);
      }
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

/// The exact cost of s -> t as a derouting batch prices an outbound leg:
/// the meet of s's forward and t's backward elimination-tree spaces,
/// refolded source first (kInfiniteCost when they never meet).
double SpaceCost(ChQuery* query, const RoadNetwork& network, NodeId s,
                 NodeId t, const EdgeCostFn& cost, std::vector<EdgeId>* edges) {
  ChSpace fwd, bwd;
  EXPECT_TRUE(query->BuildSpace(s, SweepDirection::kForward, &fwd));
  EXPECT_TRUE(query->BuildSpace(t, SweepDirection::kBackward, &bwd));
  return ChExactPathCost(query, network, fwd, bwd, cost,
                         SweepDirection::kForward, edges);
}

/// Prices `weights` in `cache` (Get) and makes it `query`'s active plane,
/// the way a derouting batch reads a published one.
void UsePlane(ChCustomizationCache& cache, ChQuery& query,
              const ChClassWeights& weights) {
  cache.Get(weights);
  ASSERT_TRUE(query.UsePublished(weights));
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
      UsePlane(cache, query, CongestedWeights(congestion, tau));
      for (NodeId s = 1; s < network->NumNodes(); s += 37) {
        const NodeId t = (s * 131) % static_cast<NodeId>(network->NumNodes());
        const PathResult ref = dijkstra.ShortestPath(s, t, cost);
        const double got = SpaceCost(&query, *network, s, t, cost, &scratch);
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
  UsePlane(cache, query, kChLengthWeights);
  std::vector<EdgeId> edges;

  EXPECT_EQ(SpaceCost(&query, *network, a, c, LengthCost, &edges), 200.0);
  EXPECT_EQ(SpaceCost(&query, *network, c, a, LengthCost, &edges),
            kInfiniteCost);
  EXPECT_EQ(SpaceCost(&query, *network, b, a, LengthCost, &edges),
            kInfiniteCost);

  // Coincident endpoints: exactly 0.0 (the sentinel the derouting formulas
  // rely on), and an empty unpacked path.
  edges = {123};
  EXPECT_EQ(SpaceCost(&query, *network, b, b, LengthCost, &edges), 0.0);
  EXPECT_TRUE(edges.empty());
}

TEST(ChQueryTest, StableWeightStreamCustomizesOnce) {
  auto network = SmallRgg(3, 150);
  auto ch = BuildChIndex(*network).MoveValueUnsafe();
  // A one-plane cache: the workspace and its source keep one metric.
  ChCustomizationCache cache(*ch, /*threads=*/0, /*max_planes=*/1);
  ChQuery query(cache);
  CongestionModel congestion(3);

  // A stable stream prices its plane once and fetches it once: the
  // workspace swaps planes only when the weight values change.
  const ChClassWeights rush = CongestedWeights(congestion, 8.0 * 3600);
  cache.Get(rush);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(query.UsePublished(rush));
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // A different traffic bucket re-prices once; asking for it again does
  // not (the cache keys on the weight values, not call order)...
  const ChClassWeights night = CongestedWeights(congestion, 2.0 * 3600);
  UsePlane(cache, query, night);
  EXPECT_EQ(cache.builds(), 2u);
  cache.Get(night);
  EXPECT_EQ(cache.builds(), 2u);
  // ...so flipping back does re-price: the evicted plane is not published,
  // and the workspace keeps the one it has until it is.
  EXPECT_FALSE(query.UsePublished(rush));
  EXPECT_EQ(cache.deferred(), 1u);
  UsePlane(cache, query, rush);
  EXPECT_EQ(cache.builds(), 3u);
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
    testing_util::ChargerBatch batch =
        testing_util::MakeChargerBatch(*network, 0.0);
    DeroutingBatchScratch oracle_scratch, ch_scratch;
    std::vector<DeroutingEstimate> want, got;

    // A batch only reads published planes, so each bucket's plane is
    // priced first; every compared batch then ran on the hierarchy.
    for (SimTime tau : {6.5 * 3600, 18.0 * 3600}) {
      cache.Get(CongestedWeights(congestion, tau));
      batch.query.now = tau;
      oracle.ExactBatch(batch.query, batch.refs, &oracle_scratch, &want);
      hierarchy.ExactBatch(batch.query, batch.refs, &ch_scratch, &got);
      EXPECT_TRUE(testing_util::EstimatesSameBits(want, got)) << "tau " << tau;
    }
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.deferred(), 0u);
    EXPECT_EQ(hierarchy.backward_sweep_starts(), 0u);
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
  UsePlane(fresh_cache, fresh, weights);
  UsePlane(reloaded_cache, reloaded, weights);
  std::vector<EdgeId> scratch_a, scratch_b;
  const EdgeCostFn cost = CongestedCost(congestion, 9.0 * 3600);
  for (NodeId s = 0; s < 200; s += 23) {
    const NodeId t = (s * 71 + 5) % 200;
    const double a = SpaceCost(&fresh, *network, s, t, cost, &scratch_a);
    const double b =
        SpaceCost(&reloaded, *loaded.network, s, t, cost, &scratch_b);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "s=" << s;
    EXPECT_EQ(scratch_a, scratch_b);
  }
}

}  // namespace
}  // namespace ecocharge
