// Cross-index parity of the query pipeline: every SpatialIndex backend
// must drive every ranker to bit-identical Offering Tables. The canonical
// result ordering (ascending distance, ties by id) is the contract that
// makes the pipeline index-agnostic; these tests pin it end to end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "core/baselines.h"
#include "core/ecocharge.h"
#include "graph/io.h"
#include "spatial/index_factory.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using testing_util::TablesBitIdentical;

/// One environment shared by every parameterization (expensive to build),
/// plus a per-backend index over the same charger points.
struct SharedWorld {
  std::unique_ptr<Environment> env;
  std::vector<VehicleState> states;
};

SharedWorld& World() {
  static SharedWorld world = [] {
    SharedWorld w;
    w.env = testing_util::TinyEnvironment(80);
    EXPECT_NE(w.env, nullptr);
    w.states = testing_util::TinyWorkload(*w.env, 8);
    EXPECT_FALSE(w.states.empty());
    return w;
  }();
  return world;
}

std::unique_ptr<SpatialIndex> BuildIndex(SpatialIndexKind kind) {
  std::vector<Point> points;
  for (const EvCharger& c : World().env->chargers) {
    points.push_back(c.position);
  }
  std::unique_ptr<SpatialIndex> index = MakeSpatialIndex(kind);
  index->Build(std::move(points));
  return index;
}

class CrossIndexParityTest
    : public ::testing::TestWithParam<SpatialIndexKind> {};

TEST_P(CrossIndexParityTest, SpatialResultsMatchQuadtree) {
  std::unique_ptr<SpatialIndex> reference =
      BuildIndex(SpatialIndexKind::kQuadTree);
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());
  ASSERT_EQ(index->size(), reference->size());
  for (const VehicleState& state : World().states) {
    EXPECT_EQ(index->Knn(state.position, 7),
              reference->Knn(state.position, 7));
    EXPECT_EQ(index->RangeSearch(state.position, 20000.0),
              reference->RangeSearch(state.position, 20000.0));
  }
}

TEST_P(CrossIndexParityTest, EcoChargeTablesBitIdentical) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> reference =
      BuildIndex(SpatialIndexKind::kQuadTree);
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // Dynamic Caching stays on, so the sequence exercises both the full
  // regeneration and the adaptation path; both must be index-invariant
  // (the hit path trivially so — it never touches the index).
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  EcoChargeRanker expected(w.env->estimator.get(), reference.get(),
                           ScoreWeights::AWE(), opts);
  EcoChargeRanker actual(w.env->estimator.get(), index.get(),
                         ScoreWeights::AWE(), opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(actual.Rank(state, 3),
                                   expected.Rank(state, 3)));
  }
  EXPECT_EQ(actual.cache().hits(), expected.cache().hits());
}

TEST_P(CrossIndexParityTest, ColumnarVsPerCandidateTablesBitIdentical) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // Columnar EC estimation vs per-candidate estimation must be a pure
  // execution-strategy change: per backend, flipping use_simd cannot move
  // a single bit of any table — the per-candidate path is the estimation
  // oracle of DESIGN.md §15. Caching stays on so the sequence covers both
  // the full-regeneration and the adaptation ranking paths.
  EcoChargeOptions columnar_opts;
  columnar_opts.radius_m = 20000.0;
  columnar_opts.use_simd = true;
  EcoChargeOptions oracle_opts = columnar_opts;
  oracle_opts.use_simd = false;
  EcoChargeRanker columnar(w.env->estimator.get(), index.get(),
                           ScoreWeights::AWE(), columnar_opts);
  EcoChargeRanker oracle(w.env->estimator.get(), index.get(),
                         ScoreWeights::AWE(), oracle_opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(columnar.Rank(state, 3),
                                   oracle.Rank(state, 3)));
  }
  EXPECT_EQ(columnar.cache().hits(), oracle.cache().hits());
}

TEST_P(CrossIndexParityTest, ColumnarVsPerCandidateHoldsWithoutIntersection) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // The ablation ranking (midpoint-only, no eq. 6 intersection) goes
  // through its own partial-select path — hold it to the same oracle.
  EcoChargeOptions columnar_opts;
  columnar_opts.radius_m = 20000.0;
  columnar_opts.use_intersection = false;
  columnar_opts.use_simd = true;
  EcoChargeOptions oracle_opts = columnar_opts;
  oracle_opts.use_simd = false;
  EcoChargeRanker columnar(w.env->estimator.get(), index.get(),
                           ScoreWeights::AWE(), columnar_opts);
  EcoChargeRanker oracle(w.env->estimator.get(), index.get(),
                         ScoreWeights::AWE(), oracle_opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(columnar.Rank(state, 3),
                                   oracle.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, QuadtreeRankerTablesBitIdentical) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> reference =
      BuildIndex(SpatialIndexKind::kQuadTree);
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  QuadtreeRanker expected(w.env->estimator.get(), reference.get(),
                          ScoreWeights::AWE(), /*candidate_budget=*/12);
  QuadtreeRanker actual(w.env->estimator.get(), index.get(),
                        ScoreWeights::AWE(), /*candidate_budget=*/12);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(actual.Rank(state, 3),
                                   expected.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, RandomRankerTablesBitIdentical) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> reference =
      BuildIndex(SpatialIndexKind::kQuadTree);
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // Identical seeds shuffle identical candidate lists identically — which
  // requires the backends to agree on the range-search result order.
  RandomRanker expected(w.env->estimator.get(), reference.get(), 20000.0,
                        /*seed=*/99);
  RandomRanker actual(w.env->estimator.get(), index.get(), 20000.0,
                      /*seed=*/99);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(actual.Rank(state, 3),
                                   expected.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, SnapshotLoadedGraphTablesBitIdentical) {
  SharedWorld& w = World();

  // Rebuild the whole world on top of an mmap-loaded snapshot of the same
  // network: the snapshot round-trips the graph exactly, so every backend
  // must still produce bit-identical Offering Tables. The world is built
  // the way perfbench's regional_ch builds its own: the snapshot carries a
  // contraction hierarchy and the options ask for the (inert) CH backend,
  // and neither may move a bit or load a hierarchy.
  // The path carries the pid: ctest runs each parameterization as its own
  // process, and concurrent writers of one shared file would race.
  static const std::string path = [] {
    std::string p = ::testing::TempDir() + "/query_pipeline_graph." +
                    std::to_string(::getpid()) + ".ecgs";
    const RoadNetwork& network = *World().env->dataset.network;
    const ChSnapshotViews views =
        ToSnapshotViews(BuildChIndex(network).MoveValueUnsafe());
    EXPECT_TRUE(SaveSnapshot(network, p, nullptr, &views).ok());
    return p;
  }();
  static const SharedWorld snapshot_world = [] {
    SharedWorld sw;
    EnvironmentOptions opts;
    opts.kind = DatasetKind::kOldenburg;
    opts.dataset_scale = 0.003;
    opts.num_chargers = 80;
    opts.max_derouting_m = 60000.0;
    opts.seed = 42;  // mirror testing_util::TinyEnvironment
    opts.graph_snapshot = path;
    opts.derouting_backend = DeroutingBackend::kCh;
    opts.ch_threads = 0;
    auto result = MakeEnvironment(opts);
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) sw.env = std::move(result).MoveValueUnsafe();
    return sw;
  }();
  ASSERT_NE(snapshot_world.env, nullptr);
  EXPECT_EQ(snapshot_world.env->ch, nullptr);
  EXPECT_EQ(snapshot_world.env->ch_cache, nullptr);

  std::unique_ptr<SpatialIndex> reference = BuildIndex(GetParam());
  std::vector<Point> points;
  for (const EvCharger& c : snapshot_world.env->chargers) {
    points.push_back(c.position);
  }
  std::unique_ptr<SpatialIndex> index = MakeSpatialIndex(GetParam());
  index->Build(std::move(points));

  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  EcoChargeRanker expected(w.env->estimator.get(), reference.get(),
                           ScoreWeights::AWE(), opts);
  EcoChargeRanker actual(snapshot_world.env->estimator.get(), index.get(),
                         ScoreWeights::AWE(), opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(actual.Rank(state, 3),
                                   expected.Rank(state, 3)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CrossIndexParityTest,
    ::testing::ValuesIn(kAllSpatialIndexKinds.begin(),
                        kAllSpatialIndexKinds.end()),
    [](const ::testing::TestParamInfo<SpatialIndexKind>& info) {
      return std::string(SpatialIndexKindName(info.param));
    });

TEST(IndexFactoryTest, ParseRoundTripsEveryKind) {
  for (SpatialIndexKind kind : kAllSpatialIndexKinds) {
    auto parsed = ParseSpatialIndexKind(SpatialIndexKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
}

TEST(IndexFactoryTest, ParseAcceptsSeparatorsAndCase) {
  EXPECT_EQ(ParseSpatialIndexKind("Quad-Tree").value(),
            SpatialIndexKind::kQuadTree);
  EXPECT_EQ(ParseSpatialIndexKind("quad_tree").value(),
            SpatialIndexKind::kQuadTree);
  EXPECT_EQ(ParseSpatialIndexKind("QUADTREE").value(),
            SpatialIndexKind::kQuadTree);
  EXPECT_FALSE(ParseSpatialIndexKind("voronoi").ok());
}

TEST(IndexFactoryTest, KdTreeIsNotSelectable) {
  // No retired backend parses.
  for (const char* retired : {"kdtree", "rtree", "r_tree", "grid"}) {
    auto parsed = ParseSpatialIndexKind(retired);
    ASSERT_FALSE(parsed.ok()) << retired;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("(quadtree|linear)"),
              std::string::npos)
        << parsed.status();
  }
}

TEST(IndexFactoryTest, MakeProducesWorkingIndex) {
  std::vector<Point> points = testing_util::RandomCloud(64);
  for (SpatialIndexKind kind : kAllSpatialIndexKinds) {
    std::unique_ptr<SpatialIndex> index = MakeSpatialIndex(kind);
    ASSERT_NE(index, nullptr);
    index->Build(points);
    EXPECT_EQ(index->size(), points.size());
    EXPECT_EQ(index->Knn({5000.0, 4000.0}, 3).size(), 3u);
  }
}

}  // namespace
}  // namespace ecocharge
