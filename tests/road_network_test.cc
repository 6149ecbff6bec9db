#include "graph/road_network.h"

#include <gtest/gtest.h>

namespace ecocharge {
namespace {

std::shared_ptr<RoadNetwork> Triangle() {
  GraphBuilder builder;
  NodeId a = builder.AddNode({0, 0});
  NodeId b = builder.AddNode({100, 0});
  NodeId c = builder.AddNode({0, 100});
  EXPECT_TRUE(builder.AddBidirectional(a, b, RoadClass::kLocal).ok());
  EXPECT_TRUE(builder.AddBidirectional(b, c, RoadClass::kArterial).ok());
  EXPECT_TRUE(builder.AddBidirectional(c, a, RoadClass::kHighway).ok());
  return builder.Build().MoveValueUnsafe();
}

TEST(GraphBuilderTest, EmptyGraphFails) {
  GraphBuilder builder;
  EXPECT_FALSE(builder.Build().ok());
}

TEST(GraphBuilderTest, RejectsBadEndpoints) {
  GraphBuilder builder;
  builder.AddNode({0, 0});
  EXPECT_FALSE(builder.AddEdge(0, 5, RoadClass::kLocal).ok());
  EXPECT_FALSE(builder.AddEdge(0, 0, RoadClass::kLocal).ok());
}

TEST(GraphBuilderTest, DefaultLengthIsEuclidean) {
  auto network = Triangle();
  // a's first out-arc leads to b, 100 m away.
  EXPECT_EQ(network->OutArcs(0)[0].node, 1u);
  EXPECT_DOUBLE_EQ(network->OutArcs(0)[0].length_m, 100.0);
}

TEST(GraphBuilderTest, ExplicitLengthOverrides) {
  GraphBuilder builder;
  NodeId a = builder.AddNode({0, 0});
  NodeId b = builder.AddNode({100, 0});
  ASSERT_TRUE(builder.AddEdge(a, b, RoadClass::kLocal, 250.0).ok());
  auto network = builder.Build().MoveValueUnsafe();
  EXPECT_DOUBLE_EQ(network->OutArcs(a)[0].length_m, 250.0);
}

TEST(GraphBuilderTest, CoincidentNodesGetPositiveLength) {
  GraphBuilder builder;
  NodeId a = builder.AddNode({5, 5});
  NodeId b = builder.AddNode({5, 5});
  ASSERT_TRUE(builder.AddEdge(a, b, RoadClass::kLocal).ok());
  auto network = builder.Build().MoveValueUnsafe();
  EXPECT_GT(network->OutArcs(a)[0].length_m, 0.0);
}

TEST(RoadNetworkTest, CsrAdjacencyIsConsistent) {
  auto network = Triangle();
  EXPECT_EQ(network->NumNodes(), 3u);
  EXPECT_EQ(network->NumEdges(), 6u);
  size_t out_total = 0, in_total = 0;
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    out_total += network->OutArcs(v).size();
    in_total += network->InArcs(v).size();
    // Every out-arc v -> w appears once among w's in-arcs as w <- v, with
    // the same attributes.
    for (const Arc& a : network->OutArcs(v)) {
      size_t matches = 0;
      for (const Arc& back : network->InArcs(a.node)) {
        if (back.node == v && back.length_m == a.length_m &&
            back.road_class == a.road_class) {
          ++matches;
        }
      }
      EXPECT_EQ(matches, 1u) << v << "->" << a.node;
    }
  }
  EXPECT_EQ(out_total, network->NumEdges());
  EXPECT_EQ(in_total, network->NumEdges());
}

TEST(RoadNetworkTest, BoundsCoverNodes) {
  auto network = Triangle();
  EXPECT_TRUE(network->Bounds().Contains({0, 0}));
  EXPECT_TRUE(network->Bounds().Contains({100, 0}));
  EXPECT_FALSE(network->Bounds().Contains({101, 101}));
}

TEST(RoadNetworkTest, NearestNodeSnaps) {
  auto network = Triangle();
  EXPECT_EQ(network->NearestNode({2, 3}), 0u);
  EXPECT_EQ(network->NearestNode({98, 5}), 1u);
  EXPECT_EQ(network->NearestNode({-5, 120}), 2u);
}

TEST(RoadNetworkTest, StrongConnectivityDetection) {
  auto network = Triangle();
  EXPECT_TRUE(network->IsStronglyConnected());

  GraphBuilder builder;
  NodeId a = builder.AddNode({0, 0});
  NodeId b = builder.AddNode({1, 0});
  builder.AddNode({2, 0});  // isolated node c
  ASSERT_TRUE(builder.AddBidirectional(a, b, RoadClass::kLocal).ok());
  auto broken = builder.Build().MoveValueUnsafe();
  EXPECT_FALSE(broken->IsStronglyConnected());
}

TEST(RoadNetworkTest, DirectedOnlyIsNotStronglyConnected) {
  GraphBuilder builder;
  NodeId a = builder.AddNode({0, 0});
  NodeId b = builder.AddNode({1, 0});
  ASSERT_TRUE(builder.AddEdge(a, b, RoadClass::kLocal).ok());
  auto network = builder.Build().MoveValueUnsafe();
  EXPECT_FALSE(network->IsStronglyConnected());
}

TEST(RoadClassTest, SpeedsAreOrdered) {
  EXPECT_GT(FreeFlowSpeed(RoadClass::kHighway),
            FreeFlowSpeed(RoadClass::kArterial));
  EXPECT_GT(FreeFlowSpeed(RoadClass::kArterial),
            FreeFlowSpeed(RoadClass::kLocal));
}

TEST(EdgeTest, FreeFlowSecondsUsesClassSpeed) {
  Edge e;
  e.length_m = 1000.0;
  e.road_class = RoadClass::kHighway;
  EXPECT_NEAR(e.FreeFlowSeconds(), 1000.0 / (120.0 / 3.6), 1e-9);
}

TEST(GraphCountsTest, GuardsThe32BitIdSpace) {
  EXPECT_TRUE(ValidateGraphCounts(1, 0).ok());
  EXPECT_TRUE(ValidateGraphCounts(kMaxNodeCount, kMaxEdgeCount).ok());
  // One past the id space: the uint64 tallies must be rejected before they
  // would be narrowed into 32-bit NodeId/EdgeId offsets.
  auto too_many_nodes = ValidateGraphCounts(kMaxNodeCount + 1, 0);
  ASSERT_FALSE(too_many_nodes.ok());
  EXPECT_EQ(too_many_nodes.code(), StatusCode::kInvalidArgument);
  auto too_many_edges = ValidateGraphCounts(1, kMaxEdgeCount + 1);
  ASSERT_FALSE(too_many_edges.ok());
  EXPECT_EQ(too_many_edges.code(), StatusCode::kInvalidArgument);
}

TEST(RoadNetworkTest, ArcsAreSortedByTarget) {
  GraphBuilder builder;
  NodeId a = builder.AddNode({0, 0});
  NodeId b = builder.AddNode({10, 0});
  NodeId c = builder.AddNode({0, 10});
  NodeId d = builder.AddNode({10, 10});
  // Insert out-edges of `a` in scrambled order; the CSR must sort them.
  ASSERT_TRUE(builder.AddEdge(a, d, RoadClass::kLocal).ok());
  ASSERT_TRUE(builder.AddEdge(a, b, RoadClass::kLocal).ok());
  ASSERT_TRUE(builder.AddEdge(a, c, RoadClass::kLocal).ok());
  ASSERT_TRUE(builder.AddEdge(a, c, RoadClass::kHighway, 5.0).ok());
  auto network = builder.Build().MoveValueUnsafe();
  auto arcs = network->OutArcs(a);
  ASSERT_EQ(arcs.size(), 4u);
  EXPECT_EQ(arcs[0].node, b);
  EXPECT_EQ(arcs[1].node, c);
  EXPECT_EQ(arcs[1].length_m, 5.0);  // parallel edges: shortest first
  EXPECT_EQ(arcs[2].node, c);
  EXPECT_EQ(arcs[3].node, d);
  // Edge ids index the forward stream: OutArcs(a)[i] is edge
  // FirstOutEdge(a) + i.
  EXPECT_EQ(arcs.data(),
            network->out_arcs().data() + network->FirstOutEdge(a));
}

namespace {

/// Minimal chunked source: a directed cycle over `n` nodes, one chunk per
/// id range.
class CycleSource : public ChunkedEdgeSource {
 public:
  CycleSource(uint64_t n, uint64_t chunks) : n_(n), chunks_(chunks) {}
  uint64_t NumNodes() const override { return n_; }
  uint64_t NumChunks() const override { return chunks_; }
  Point NodePosition(NodeId v) const override {
    return Point{static_cast<double>(v), 0.0};
  }
  void EmitEdges(uint64_t chunk, EdgeSink& sink) const override {
    uint64_t v0 = chunk * n_ / chunks_;
    uint64_t v1 = (chunk + 1) * n_ / chunks_;
    for (uint64_t v = v0; v < v1; ++v) {
      sink.Directed(static_cast<NodeId>(v),
                    static_cast<NodeId>((v + 1) % n_), RoadClass::kLocal);
    }
  }

 private:
  uint64_t n_;
  uint64_t chunks_;
};

}  // namespace

TEST(ChunkedBuildTest, BuildsCycleAcrossChunks) {
  CycleSource source(10, 4);
  auto result = BuildFromChunkedSource(source);
  ASSERT_TRUE(result.ok()) << result.status();
  auto network = result.MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 10u);
  EXPECT_EQ(network->NumEdges(), 10u);
  EXPECT_TRUE(network->IsStronglyConnected());
  for (NodeId v = 0; v < 10; ++v) {
    ASSERT_EQ(network->OutArcs(v).size(), 1u);
    EXPECT_EQ(network->OutArcs(v)[0].node, (v + 1) % 10);
    ASSERT_EQ(network->InArcs(v).size(), 1u);
  }
}

TEST(ChunkedBuildTest, RejectsOutOfRangeEndpointAndSelfLoop) {
  class BadSource : public CycleSource {
   public:
    explicit BadSource(bool self_loop)
        : CycleSource(3, 1), self_loop_(self_loop) {}
    void EmitEdges(uint64_t, EdgeSink& sink) const override {
      if (self_loop_) {
        sink.Directed(1, 1, RoadClass::kLocal);
      } else {
        sink.Directed(0, 7, RoadClass::kLocal);
      }
    }

   private:
    bool self_loop_;
  };
  BadSource oob(/*self_loop=*/false);
  EXPECT_FALSE(BuildFromChunkedSource(oob).ok());
  BadSource loop(/*self_loop=*/true);
  EXPECT_FALSE(BuildFromChunkedSource(loop).ok());
}

}  // namespace
}  // namespace ecocharge
