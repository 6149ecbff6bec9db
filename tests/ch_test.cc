// Contraction hierarchy: structural invariants of the contraction and the
// validation ChIndex::FromViews runs on every index it wraps. No query reads
// a hierarchy (exact derouting runs the Dijkstra sweeps); perfbench's
// regional_ch setup contracts one and snapshots it, so the builder stays
// tested.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "graph/generators.h"

namespace ecocharge {
namespace {

/// A small random geometric network.
std::shared_ptr<RoadNetwork> SmallRgg(uint64_t seed, size_t nodes = 300) {
  RandomGeometricOptions opts;
  opts.num_nodes = nodes;
  opts.k_nearest = 3;
  opts.seed = seed;
  return MakeRandomGeometric(opts).MoveValueUnsafe();
}

/// Whether the row (sorted by far endpoint) holds an arc to `node`.
bool HasArcTo(std::span<const ChArc> row, NodeId node) {
  return std::binary_search(
      row.begin(), row.end(), ChArc{node},
      [](const ChArc& a, const ChArc& b) { return a.node < b.node; });
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
  // (x -> b), a != b, the enclosing arc (a -> b) must exist.
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
        const bool closed = ch->rank(da.node) < ch->rank(ua.node)
                                ? HasArcTo(ch->UpArcs(da.node), ua.node)
                                : HasArcTo(ch->DownArcs(ua.node), da.node);
        ASSERT_TRUE(closed) << "missing triangle arc " << da.node << " -> "
                            << ua.node << " below apex " << x;
      }
    }
  }
}

/// Three nodes ranked by id with up arcs 0 -> 1 and 0 -> 2: a valid index
/// until its rank array is corrupted.
struct TinyIndex {
  std::vector<uint32_t> rank = {0, 1, 2};
  std::vector<uint32_t> up_offsets = {0, 2, 2, 2};
  std::vector<ChArc> up_arcs = {ChArc{1, 0}, ChArc{2, 1}};
  std::vector<uint32_t> down_offsets = {0, 0, 0, 0};

  Result<std::shared_ptr<ChIndex>> Build() const {
    ChIndex::Views v;
    v.rank = rank;
    v.up_offsets = up_offsets;
    v.up_arcs = up_arcs;
    v.down_offsets = down_offsets;
    return ChIndex::FromViews(std::move(v), 2);
  }
};

TEST(ChContractionTest, FromViewsRejectsRankViolations) {
  EXPECT_TRUE(TinyIndex().Build().ok());
  TinyIndex duplicate;
  duplicate.rank = {0, 1, 1};
  EXPECT_FALSE(duplicate.Build().ok());
  TinyIndex inverted;
  inverted.rank = {1, 0, 2};  // 0 -> 1 would point down the order
  EXPECT_FALSE(inverted.Build().ok());
}

}  // namespace
}  // namespace ecocharge
