#include "graph/generators.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "spatial/linear_scan.h"

namespace ecocharge {
namespace {

TEST(GridNetworkTest, SizeAndConnectivity) {
  GridNetworkOptions opts;
  opts.nx = 10;
  opts.ny = 12;
  opts.seed = 1;
  auto network = MakeGridNetwork(opts).MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 120u);
  EXPECT_TRUE(network->IsStronglyConnected());
  // Grid edge count: 2 * (nx-1)*ny + 2 * nx*(ny-1) directed edges.
  EXPECT_GE(network->NumEdges(), 2u * (9 * 12 + 10 * 11));
}

TEST(GridNetworkTest, RejectsDegenerateOptions) {
  GridNetworkOptions opts;
  opts.nx = 1;
  EXPECT_FALSE(MakeGridNetwork(opts).ok());
  opts.nx = 5;
  opts.spacing_m = -1.0;
  EXPECT_FALSE(MakeGridNetwork(opts).ok());
}

TEST(GridNetworkTest, ContainsAllRoadClasses) {
  GridNetworkOptions opts;
  opts.nx = 11;
  opts.ny = 11;
  auto network = MakeGridNetwork(opts).MoveValueUnsafe();
  bool has[3] = {false, false, false};
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    for (const Arc& a : network->OutArcs(v)) {
      has[static_cast<int>(a.road_class)] = true;
    }
  }
  EXPECT_TRUE(has[0]);  // highway
  EXPECT_TRUE(has[1]);  // arterial
  EXPECT_TRUE(has[2]);  // local
}

TEST(GridNetworkTest, DeterministicInSeed) {
  GridNetworkOptions opts;
  opts.seed = 77;
  auto a = MakeGridNetwork(opts).MoveValueUnsafe();
  auto b = MakeGridNetwork(opts).MoveValueUnsafe();
  ASSERT_EQ(a->NumNodes(), b->NumNodes());
  for (NodeId v = 0; v < a->NumNodes(); ++v) {
    EXPECT_EQ(a->NodePosition(v), b->NodePosition(v));
  }
  opts.seed = 78;
  auto c = MakeGridNetwork(opts).MoveValueUnsafe();
  bool any_diff = false;
  for (NodeId v = 0; v < a->NumNodes(); ++v) {
    if (!(a->NodePosition(v) == c->NodePosition(v))) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RadialCityTest, SizeAndConnectivity) {
  RadialCityOptions opts;
  opts.rings = 5;
  opts.spokes = 8;
  auto network = MakeRadialCity(opts).MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 1u + 5u * 8u);
  EXPECT_TRUE(network->IsStronglyConnected());
}

TEST(RadialCityTest, RejectsTooFewSpokes) {
  RadialCityOptions opts;
  opts.spokes = 2;
  EXPECT_FALSE(MakeRadialCity(opts).ok());
}

/// FNV-1a over the edge list (endpoints, class, length bits) in edge-id
/// order, i.e. the forward arc stream node by node: pins every kNN link and
/// patch edge a generator emits.
uint64_t EdgeListDigest(const RoadNetwork& network) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(network.NumNodes());
  mix(network.NumEdges());
  for (NodeId v = 0; v < network.NumNodes(); ++v) {
    for (const Arc& a : network.OutArcs(v)) {
      mix(v);
      mix(a.node);
      mix(static_cast<uint64_t>(a.road_class));
      uint64_t bits;
      std::memcpy(&bits, &a.length_m, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

TEST(RandomGeometricTest, ConnectivityIsPatched) {
  RandomGeometricOptions opts;
  opts.num_nodes = 300;
  opts.k_nearest = 2;  // sparse: 17 components before patching
  opts.seed = 5;
  auto network = MakeRandomGeometric(opts).MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 300u);
  EXPECT_TRUE(network->IsStronglyConnected());
  // The kNN links and the patch edges snap nodes through the spatial
  // index; its (distance, id) order decides every pick, so the digests
  // pin them.
  EXPECT_EQ(EdgeListDigest(*network), 0x09b248b58ff1e40full);

  // The Geolife-shaped network (src/traj/dataset.cc) at seed 3 splits
  // into 2 components, so the dataset path goes through the patch pass.
  RandomGeometricOptions geolife;
  geolife.num_nodes = 1400;
  geolife.width_m = 50000.0;
  geolife.height_m = 45000.0;
  geolife.k_nearest = 4;
  geolife.seed = 3;
  auto patched = MakeRandomGeometric(geolife).MoveValueUnsafe();
  EXPECT_TRUE(patched->IsStronglyConnected());
  EXPECT_EQ(EdgeListDigest(*patched), 0xe3211f8f8ca1ab08ull);

  // A 1-NN input falls into 62 components: 61 of its 199 undirected
  // edges come from the patch pass's foreign-neighbour search.
  RandomGeometricOptions forest;
  forest.num_nodes = 200;
  forest.k_nearest = 1;
  forest.seed = 11;
  auto fragmented = MakeRandomGeometric(forest).MoveValueUnsafe();
  EXPECT_TRUE(fragmented->IsStronglyConnected());
  EXPECT_EQ(EdgeListDigest(*fragmented), 0x272b58c0915d466aull);
}

TEST(RandomGeometricTest, EveryNodeLinksToItsKNearest) {
  // The header's promise, whichever endpoint has the lower id: each node
  // has a road to each of its k nearest neighbours. The linear scan is the
  // oracle; the patch pass only adds roads.
  struct Case {
    size_t nodes;
    int k;
    uint64_t seed;
  };
  for (const Case& c : {Case{300, 2, 5}, Case{200, 1, 11}, Case{400, 4, 3}}) {
    RandomGeometricOptions opts;
    opts.num_nodes = c.nodes;
    opts.k_nearest = c.k;
    opts.seed = c.seed;
    auto network = MakeRandomGeometric(opts).MoveValueUnsafe();
    std::vector<Point> positions;
    for (NodeId v = 0; v < network->NumNodes(); ++v) {
      positions.push_back(network->NodePosition(v));
    }
    LinearScanIndex oracle;
    oracle.Build(positions);
    size_t missing = 0;
    for (NodeId v = 0; v < network->NumNodes(); ++v) {
      int checked = 0;
      for (const Neighbor& cand :
           oracle.Knn(positions[v], static_cast<size_t>(c.k) + 1)) {
        if (cand.id == v) continue;
        const auto arcs = network->OutArcs(v);
        if (std::none_of(arcs.begin(), arcs.end(), [&](const Arc& arc) {
              return arc.node == cand.id;
            })) {
          ++missing;
        }
        if (++checked >= c.k) break;
      }
    }
    EXPECT_EQ(missing, 0u) << "n=" << c.nodes << " k=" << c.k
                           << " seed=" << c.seed;
  }
}

TEST(RandomGeometricTest, RejectsBadOptions) {
  RandomGeometricOptions opts;
  opts.num_nodes = 1;
  EXPECT_FALSE(MakeRandomGeometric(opts).ok());
  opts.num_nodes = 10;
  opts.k_nearest = 0;
  EXPECT_FALSE(MakeRandomGeometric(opts).ok());
}

TEST(CorridorRegionTest, CitiesPlusCorridors) {
  CorridorRegionOptions opts;
  opts.num_cities = 4;
  opts.city_nx = 6;
  opts.city_ny = 6;
  opts.seed = 9;
  auto network = MakeCorridorRegion(opts).MoveValueUnsafe();
  EXPECT_GE(network->NumNodes(), 4u * 36u);
  EXPECT_TRUE(network->IsStronglyConnected());
  // Corridors must contribute highway edges.
  bool has_highway = false;
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    for (const Arc& a : network->OutArcs(v)) {
      has_highway = has_highway || a.road_class == RoadClass::kHighway;
    }
  }
  EXPECT_TRUE(has_highway);
}

// ---------------------------------------------------------------------------
// Streaming generators.
// ---------------------------------------------------------------------------

/// The CSR arrays are canonically ordered, so two identical graphs have
/// identical arc streams.
void ExpectSameNetwork(const RoadNetwork& a, const RoadNetwork& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    ASSERT_EQ(a.NodePosition(v), b.NodePosition(v)) << "node " << v;
  }
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    ASSERT_EQ(a.FirstOutEdge(v), b.FirstOutEdge(v)) << "node " << v;
  }
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    ASSERT_EQ(a.arc(e).node, b.arc(e).node) << "edge " << e;
    ASSERT_EQ(a.arc(e).length_m, b.arc(e).length_m) << "edge " << e;
    ASSERT_EQ(a.arc(e).road_class, b.arc(e).road_class) << "edge " << e;
  }
}

TEST(StreamingGridTest, MatchesSizeAndConnectivity) {
  StreamingGridOptions opts;
  opts.nx = 25;
  opts.ny = 18;
  opts.seed = 3;
  auto network = MakeStreamingGrid(opts).MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 25u * 18u);
  EXPECT_EQ(network->NumEdges(), 2u * (24u * 18u + 25u * 17u));
  EXPECT_TRUE(network->IsStronglyConnected());
}

TEST(StreamingGridTest, IdenticalForAnyChunkCount) {
  StreamingGridOptions opts;
  opts.nx = 13;
  opts.ny = 21;
  opts.seed = 42;
  opts.num_chunks = 1;
  auto mono = MakeStreamingGrid(opts).MoveValueUnsafe();
  for (uint64_t chunks : {2u, 7u, 64u}) {
    opts.num_chunks = chunks;
    auto chunked = MakeStreamingGrid(opts).MoveValueUnsafe();
    ExpectSameNetwork(*mono, *chunked);
  }
}

TEST(StreamingGridTest, RejectsDegenerateOptions) {
  StreamingGridOptions opts;
  opts.nx = 1;
  EXPECT_FALSE(MakeStreamingGrid(opts).ok());
  opts.nx = 5;
  opts.spacing_m = 0.0;
  EXPECT_FALSE(MakeStreamingGrid(opts).ok());
}

TEST(StreamingGeometricTest, ConnectedByConstruction) {
  StreamingGeometricOptions opts;
  opts.num_nodes = 2000;
  opts.width_m = 30000.0;
  opts.height_m = 20000.0;
  opts.target_degree = 4.0;
  opts.seed = 9;
  auto network = MakeStreamingGeometric(opts).MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 2000u);
  EXPECT_TRUE(network->IsStronglyConnected());
  // Backbone + proximity should land near the target degree, not wildly off.
  double avg_degree =
      static_cast<double>(network->NumEdges()) / network->NumNodes();
  EXPECT_GT(avg_degree, 2.0);
  EXPECT_LT(avg_degree, 4.0 * opts.target_degree);
}

TEST(StreamingGeometricTest, IdenticalForAnyChunkCount) {
  StreamingGeometricOptions opts;
  opts.num_nodes = 500;
  opts.width_m = 10000.0;
  opts.height_m = 10000.0;
  opts.seed = 17;
  opts.num_chunks = 1;
  auto mono = MakeStreamingGeometric(opts).MoveValueUnsafe();
  for (uint64_t chunks : {3u, 16u, 1000u}) {
    opts.num_chunks = chunks;  // clamped to the cell count internally
    auto chunked = MakeStreamingGeometric(opts).MoveValueUnsafe();
    ExpectSameNetwork(*mono, *chunked);
  }
}

TEST(StreamingGeometricTest, RejectsBadOptions) {
  StreamingGeometricOptions opts;
  opts.num_nodes = 1;
  EXPECT_FALSE(MakeStreamingGeometric(opts).ok());
  opts.num_nodes = 100;
  opts.width_m = -5.0;
  EXPECT_FALSE(MakeStreamingGeometric(opts).ok());
  opts.width_m = 1000.0;
  opts.radius_m = 0.0;
  opts.target_degree = 0.0;
  EXPECT_FALSE(MakeStreamingGeometric(opts).ok());
}

TEST(StreamingHyperbolicTest, ConnectedWithHubSkew) {
  StreamingHyperbolicOptions opts;
  opts.num_nodes = 3000;
  opts.out_links = 3;
  opts.skew = 3.0;
  opts.seed = 5;
  auto network = MakeStreamingHyperbolic(opts).MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 3000u);
  EXPECT_TRUE(network->IsStronglyConnected());

  // Heavy-tailed degrees: the busiest hub should dwarf the average.
  size_t max_degree = 0;
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    max_degree = std::max(max_degree, network->OutArcs(v).size());
  }
  double avg_degree =
      static_cast<double>(network->NumEdges()) / network->NumNodes();
  EXPECT_GT(static_cast<double>(max_degree), 10.0 * avg_degree);

  // Hub links carry highway/arterial classes.
  bool has[3] = {false, false, false};
  for (NodeId v = 0; v < network->NumNodes(); ++v) {
    for (const Arc& a : network->OutArcs(v)) {
      has[static_cast<int>(a.road_class)] = true;
    }
  }
  EXPECT_TRUE(has[0] && has[1] && has[2]);
}

TEST(StreamingHyperbolicTest, IdenticalForAnyChunkCount) {
  StreamingHyperbolicOptions opts;
  opts.num_nodes = 800;
  opts.seed = 23;
  opts.num_chunks = 1;
  auto mono = MakeStreamingHyperbolic(opts).MoveValueUnsafe();
  for (uint64_t chunks : {2u, 13u, 800u}) {
    opts.num_chunks = chunks;
    auto chunked = MakeStreamingHyperbolic(opts).MoveValueUnsafe();
    ExpectSameNetwork(*mono, *chunked);
  }
}

TEST(StreamingHyperbolicTest, RejectsBadOptions) {
  StreamingHyperbolicOptions opts;
  opts.num_nodes = 1;
  EXPECT_FALSE(MakeStreamingHyperbolic(opts).ok());
  opts.num_nodes = 100;
  opts.out_links = 0;
  EXPECT_FALSE(MakeStreamingHyperbolic(opts).ok());
  opts.out_links = 3;
  opts.skew = 0.5;
  EXPECT_FALSE(MakeStreamingHyperbolic(opts).ok());
}

// ---------------------------------------------------------------------------
// Option-string front end.
// ---------------------------------------------------------------------------

TEST(GenerateNetworkTest, BuildsGridFromSpec) {
  auto result = GenerateNetwork("type=grid;nx=10;ny=8;spacing=400;seed=7");
  ASSERT_TRUE(result.ok()) << result.status();
  auto network = result.MoveValueUnsafe();
  EXPECT_EQ(network->NumNodes(), 80u);
  EXPECT_TRUE(network->IsStronglyConnected());
}

TEST(GenerateNetworkTest, SpecMatchesDirectOptions) {
  StreamingGridOptions opts;
  opts.nx = 9;
  opts.ny = 9;
  opts.seed = 12;
  auto direct = MakeStreamingGrid(opts).MoveValueUnsafe();
  auto from_spec =
      GenerateNetwork("type=grid;nx=9;ny=9;seed=12").MoveValueUnsafe();
  ExpectSameNetwork(*direct, *from_spec);
}

TEST(GenerateNetworkTest, BuildsEveryType) {
  EXPECT_TRUE(GenerateNetwork("type=grid;nx=6;ny=6").ok());
  EXPECT_TRUE(GenerateNetwork("type=rgg;nodes=300;width=5000;height=5000").ok());
  EXPECT_TRUE(GenerateNetwork("type=hyperbolic;nodes=300").ok());
  EXPECT_TRUE(GenerateNetwork("type=radial;rings=4;spokes=8").ok());
  EXPECT_TRUE(GenerateNetwork("type=corridor;cities=3;city_nx=5;city_ny=5").ok());
}

TEST(GenerateNetworkTest, RejectsMalformedSpecs) {
  // Every rejection is kInvalidArgument with a clean message.
  for (const char* spec : {
           "",                               // no type
           "nx=5;ny=5",                      // no type
           "type=nosuch",                    // unknown type
           "type=grid;bogus_key=1",          // unknown key
           "type=grid;nx=banana",            // malformed number
           "type=grid;nx=-4",                // negative for unsigned
           "type=rgg;nodes=300;width=oops",  // malformed double
           "=5;type=grid",                   // empty key
       }) {
    auto result = GenerateNetwork(spec);
    ASSERT_FALSE(result.ok()) << "spec accepted: " << spec;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "spec: " << spec;
  }
}

TEST(GenerateNetworkTest, ValidateFlagAndWhitespaceTolerated) {
  EXPECT_TRUE(GenerateNetwork("type=grid; nx=5; ny=5; validate=0").ok());
  EXPECT_TRUE(GenerateNetwork("type=grid;nx=5;ny=5;validate").ok());
}

TEST(CorridorRegionTest, SpansRequestedExtent) {
  CorridorRegionOptions opts;
  opts.num_cities = 5;
  opts.region_width_m = 200000.0;
  opts.region_height_m = 80000.0;
  auto network = MakeCorridorRegion(opts).MoveValueUnsafe();
  // Cities are placed in [0.1, 0.9] of the region; the extent should be a
  // substantial fraction of it.
  EXPECT_GT(network->Bounds().Width(), 0.3 * opts.region_width_m);
}

}  // namespace
}  // namespace ecocharge
