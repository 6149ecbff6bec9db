// Cross-index parity of the query pipeline: every SpatialIndex backend
// must drive every ranker to bit-identical Offering Tables. The canonical
// result ordering (ascending distance, ties by id) is the contract that
// makes the pipeline index-agnostic; these tests pin it end to end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/ecocharge.h"
#include "graph/io.h"
#include "graph/landmarks.h"
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

/// The same world with the contraction-hierarchy derouting engine (the
/// --derouting=ch serving configuration): built from the same options
/// except derouting_backend, so network, fleet and workload match World().
Environment* ChWorld() {
  static const std::unique_ptr<Environment> env =
      testing_util::TinyEnvironment(80, 42, DeroutingBackend::kCh);
  return env.get();
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

TEST_P(CrossIndexParityTest, BatchedRefinementTablesBitIdentical) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // The batched one-to-many refinement must be a pure execution-strategy
  // change: per backend, flipping it cannot move a single bit of the table.
  EcoChargeOptions batched_opts;
  batched_opts.radius_m = 20000.0;
  batched_opts.batch_derouting = true;
  EcoChargeOptions per_candidate_opts = batched_opts;
  per_candidate_opts.batch_derouting = false;
  EcoChargeRanker batched(w.env->estimator.get(), index.get(),
                          ScoreWeights::AWE(), batched_opts);
  EcoChargeRanker per_candidate(w.env->estimator.get(), index.get(),
                                ScoreWeights::AWE(), per_candidate_opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(batched.Rank(state, 3),
                                   per_candidate.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, LandmarkOrderingPreservesBatchParity) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // ALT ordering runs before the batch/per-candidate branch, so with the
  // same landmark index both execution strategies still agree bitwise.
  static const LandmarkIndex landmarks(*w.env->dataset.network, 4);
  EcoChargeOptions batched_opts;
  batched_opts.radius_m = 20000.0;
  batched_opts.landmarks = &landmarks;
  batched_opts.batch_derouting = true;
  EcoChargeOptions per_candidate_opts = batched_opts;
  per_candidate_opts.batch_derouting = false;
  EcoChargeRanker batched(w.env->estimator.get(), index.get(),
                          ScoreWeights::AWE(), batched_opts);
  EcoChargeRanker per_candidate(w.env->estimator.get(), index.get(),
                                ScoreWeights::AWE(), per_candidate_opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(batched.Rank(state, 3),
                                   per_candidate.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, ChBackendTablesBitIdentical) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // Swapping the exact-derouting engine (Dijkstra sweeps -> contraction
  // hierarchy, the --derouting=ch serving configuration) must not move a
  // single bit of any backend's table. ChWorld() differs from World() only
  // in the engine inside the estimator. Candidate ordering is identical in
  // both arms (neither ranker gets ordering bounds), so the engine swap is
  // the only difference.
  Environment* ch_env = ChWorld();
  ASSERT_NE(ch_env, nullptr);
  ASSERT_EQ(ch_env->estimator->derouting_service().backend(),
            DeroutingBackend::kCh);
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  EcoChargeRanker exact(w.env->estimator.get(), index.get(),
                        ScoreWeights::AWE(), opts);
  EcoChargeRanker hierarchy(ch_env->estimator.get(), index.get(),
                            ScoreWeights::AWE(), opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(
        TablesBitIdentical(hierarchy.Rank(state, 3), exact.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, ChOrderingPreservesBatchParity) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // With CH bounds ordering the refinement candidates (the --derouting=ch
  // serving configuration), batch vs per-candidate refinement is still a
  // pure execution-strategy change: the ordering runs before the branch.
  // Refining 2 of the 3-deep pool keeps the ordering from being moot.
  Environment* ch_env = ChWorld();
  ASSERT_NE(ch_env, nullptr);
  EcoChargeOptions batched_opts;
  batched_opts.radius_m = 20000.0;
  batched_opts.refine_limit = 2;
  batched_opts.ch = ch_env->ch.get();
  batched_opts.batch_derouting = true;
  EcoChargeOptions per_candidate_opts = batched_opts;
  per_candidate_opts.batch_derouting = false;
  EcoChargeRanker batched(ch_env->estimator.get(), index.get(),
                          ScoreWeights::AWE(), batched_opts);
  EcoChargeRanker per_candidate(ch_env->estimator.get(), index.get(),
                                ScoreWeights::AWE(), per_candidate_opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(batched.Rank(state, 3),
                                   per_candidate.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, SimdOnOffTablesBitIdentical) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // The SIMD filter/score hot path vs the scalar reference kernels must be
  // a pure execution-strategy change: per backend, flipping --no-simd
  // cannot move a single bit of any table — the scalar path is the parity
  // oracle of DESIGN.md §15. Caching stays on so the sequence covers both
  // the full-regeneration and the adaptation ranking paths.
  EcoChargeOptions simd_opts;
  simd_opts.radius_m = 20000.0;
  simd_opts.use_simd = true;
  EcoChargeOptions scalar_opts = simd_opts;
  scalar_opts.use_simd = false;
  EcoChargeRanker vectorized(w.env->estimator.get(), index.get(),
                             ScoreWeights::AWE(), simd_opts);
  EcoChargeRanker scalar(w.env->estimator.get(), index.get(),
                         ScoreWeights::AWE(), scalar_opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(vectorized.Rank(state, 3),
                                   scalar.Rank(state, 3)));
  }
  EXPECT_EQ(vectorized.cache().hits(), scalar.cache().hits());
}

TEST_P(CrossIndexParityTest, SimdParityHoldsWithoutIntersection) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // The ablation ranking (midpoint-only, no eq. 6 intersection) goes
  // through its own partial-select path — hold it to the same oracle.
  EcoChargeOptions simd_opts;
  simd_opts.radius_m = 20000.0;
  simd_opts.use_intersection = false;
  simd_opts.use_simd = true;
  EcoChargeOptions scalar_opts = simd_opts;
  scalar_opts.use_simd = false;
  EcoChargeRanker vectorized(w.env->estimator.get(), index.get(),
                             ScoreWeights::AWE(), simd_opts);
  EcoChargeRanker scalar(w.env->estimator.get(), index.get(),
                         ScoreWeights::AWE(), scalar_opts);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(vectorized.Rank(state, 3),
                                   scalar.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, SimdParityHoldsOnChBackend) {
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // SIMD on/off over the contraction-hierarchy derouting engine: the
  // second exact backend completes the 5 spatial x 2 derouting parity
  // matrix the acceptance contract names.
  Environment* ch_env = ChWorld();
  ASSERT_NE(ch_env, nullptr);
  EcoChargeOptions simd_opts;
  simd_opts.radius_m = 20000.0;
  simd_opts.use_simd = true;
  EcoChargeOptions scalar_opts = simd_opts;
  scalar_opts.use_simd = false;
  EcoChargeRanker vectorized(ch_env->estimator.get(), index.get(),
                             ScoreWeights::AWE(), simd_opts);
  EcoChargeRanker scalar(ch_env->estimator.get(), index.get(),
                         ScoreWeights::AWE(), scalar_opts);
  for (const VehicleState& state : World().states) {
    EXPECT_TRUE(TablesBitIdentical(vectorized.Rank(state, 3),
                                   scalar.Rank(state, 3)));
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
  // must still produce bit-identical Offering Tables.
  // The path carries the pid: ctest runs each parameterization as its own
  // process, and concurrent writers of one shared file would race.
  static const std::string path = [] {
    std::string p = ::testing::TempDir() + "/query_pipeline_graph." +
                    std::to_string(::getpid()) + ".ecgs";
    EXPECT_TRUE(SaveSnapshot(*World().env->dataset.network, p).ok());
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
    auto result = MakeEnvironment(opts);
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) sw.env = std::move(result).MoveValueUnsafe();
    return sw;
  }();
  ASSERT_NE(snapshot_world.env, nullptr);

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
  EXPECT_EQ(ParseSpatialIndexKind("KD-Tree").value(),
            SpatialIndexKind::kKdTree);
  EXPECT_EQ(ParseSpatialIndexKind("r_tree").value(), SpatialIndexKind::kRTree);
  EXPECT_EQ(ParseSpatialIndexKind("QUADTREE").value(),
            SpatialIndexKind::kQuadTree);
  EXPECT_FALSE(ParseSpatialIndexKind("voronoi").ok());
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
