// Cross-index parity of the query pipeline: every SpatialIndex backend
// must drive every ranker to bit-identical Offering Tables. Range queries
// return neighbors in each backend's own traversal order; the pipeline
// makes itself index-agnostic by canonicalizing that order (the filter
// emits ascending ids, the Random baseline sorts by distance then id).
// These tests pin it end to end, including under injected EIS faults,
// where the order of upstream fetches decides which charger degrades.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "core/baselines.h"
#include "core/ecocharge.h"
#include "graph/io.h"
#include "resilience/resilient_information_server.h"
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
  // requires the ranker to sort the unordered range result first.
  RandomRanker expected(w.env->estimator.get(), reference.get(), 20000.0,
                        /*seed=*/99);
  RandomRanker actual(w.env->estimator.get(), index.get(), 20000.0,
                      /*seed=*/99);
  for (const VehicleState& state : w.states) {
    EXPECT_TRUE(TablesBitIdentical(actual.Rank(state, 3),
                                   expected.Rank(state, 3)));
  }
}

TEST_P(CrossIndexParityTest, FilterCandidatesAscendingAndBackendInvariant) {
  SharedWorld& w = World();
  std::unique_ptr<SpatialIndex> reference =
      BuildIndex(SpatialIndexKind::kQuadTree);
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // The filter emits candidates in strictly ascending id order on every
  // backend, whatever order the range query returned them in; one context
  // is reused across queries, so its bitset must come back clean.
  QueryContext ctx;
  for (double radius : {0.0, 3000.0, 8000.0, 20000.0, 1e9}) {
    CknnEcOptions opts;
    opts.radius_m = radius;
    CknnEcProcessor expected(w.env->estimator.get(), reference.get(), opts);
    CknnEcProcessor actual(w.env->estimator.get(), index.get(), opts);
    for (const VehicleState& state : w.states) {
      const std::vector<ChargerId> want =
          expected.FilterCandidates(state.position);
      const std::vector<ChargerId>& got =
          actual.FilterCandidates(state.position, &ctx);
      EXPECT_EQ(got, want) << "radius " << radius;
      EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                     std::greater_equal<ChargerId>()) ==
                  got.end())
          << "candidates not strictly ascending at radius " << radius;
      // Exactly the chargers within R.
      std::vector<ChargerId> in_range;
      for (const Neighbor& nb : index->RangeSearch(state.position, radius)) {
        in_range.push_back(nb.id);
      }
      std::sort(in_range.begin(), in_range.end());
      EXPECT_EQ(got, in_range) << "radius " << radius;
    }
  }
}

TEST_P(CrossIndexParityTest, FaultyEisTablesBitIdentical) {
  SharedWorld& w = World();
  Environment& env = *w.env;
  std::unique_ptr<SpatialIndex> reference =
      BuildIndex(SpatialIndexKind::kQuadTree);
  std::unique_ptr<SpatialIndex> index = BuildIndex(GetParam());

  // Weather and availability fail at random. Each upstream draws its
  // faults from one seeded stream in fetch order, and a short TTL makes
  // later requests miss again, so the charger a fault lands on follows the
  // candidate order. The tables match bitwise only because that order is
  // the same on every backend.
  EisOptions eis;
  eis.weather_ttl_s = 60.0;
  eis.availability_ttl_s = 60.0;
  resilience::ResilienceOptions res;
  resilience::FaultProfile noisy;
  noisy.error_probability = 0.4;
  res.faults.weather = noisy;
  res.faults.availability = noisy;
  res.retry.max_attempts = 2;
  resilience::ResilientInformationServer expected_eis(
      env.energy.get(), env.availability.get(), env.congestion.get(), eis,
      res);
  resilience::ResilientInformationServer actual_eis(
      env.energy.get(), env.availability.get(), env.congestion.get(), eis,
      res);
  EcEstimator expected_estimator(env.dataset.network, &env.chargers,
                                 env.energy.get(), env.availability.get(),
                                 env.congestion.get(),
                                 env.estimator->options(), &expected_eis);
  EcEstimator actual_estimator(env.dataset.network, &env.chargers,
                               env.energy.get(), env.availability.get(),
                               env.congestion.get(), env.estimator->options(),
                               &actual_eis);
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  opts.use_dynamic_cache = false;  // every request fetches
  EcoChargeRanker expected(&expected_estimator, reference.get(),
                           ScoreWeights::AWE(), opts);
  EcoChargeRanker actual(&actual_estimator, index.get(), ScoreWeights::AWE(),
                         opts);
  size_t degraded = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (VehicleState state : w.states) {
      state.time += pass * 600.0;
      const OfferingTable want = expected.Rank(state, 3);
      EXPECT_TRUE(TablesBitIdentical(actual.Rank(state, 3), want))
          << "pass " << pass;
      if (want.degraded) ++degraded;
    }
  }
  // The faults really fired and really reached the tables.
  EXPECT_GT(degraded, 0u);
  for (resilience::UpstreamKind kind :
       {resilience::UpstreamKind::kWeather,
        resilience::UpstreamKind::kAvailability}) {
    const resilience::UpstreamResilienceStats want =
        expected_eis.ResilienceSnapshot(kind, 0.0);
    const resilience::UpstreamResilienceStats got =
        actual_eis.ResilienceSnapshot(kind, 0.0);
    EXPECT_GT(want.retries, 0u);
    EXPECT_GT(want.stale_serves + want.climatological_serves, 0u);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.stale_serves, want.stale_serves);
    EXPECT_EQ(got.climatological_serves, want.climatological_serves);
  }
}

TEST_P(CrossIndexParityTest, SnapshotLoadedGraphTablesBitIdentical) {
  SharedWorld& w = World();

  // Rebuild the whole world on top of an mmap-loaded snapshot of the same
  // network: the snapshot round-trips the graph exactly, so every backend
  // must still produce bit-identical Offering Tables. The world is built
  // the way perfbench's regional_ch builds its own: it makes the (empty)
  // contraction hierarchy, hands it to the snapshot writer and asks for
  // the (inert) CH backend, and none of that may move a bit or load a
  // hierarchy. The calls mirror perfbench/src/workloads.cc, which compiles
  // against the same ch/ names, so a change to them that would break that
  // build fails here first.
  // The path carries the pid: ctest runs each parameterization as its own
  // process, and concurrent writers of one shared file would race.
  static const std::string path = [] {
    std::string p = ::testing::TempDir() + "/query_pipeline_graph." +
                    std::to_string(::getpid()) + ".ecgs";
    const RoadNetwork& network = *World().env->dataset.network;
    std::shared_ptr<ChIndex> ch = BuildChIndex(network).MoveValueUnsafe();
    ChSnapshotViews views = ToSnapshotViews(ch);
    EXPECT_TRUE(SaveSnapshot(network, p, nullptr, &views).ok());
    ChCustomizationCache cache(*ch, 0);
    cache.AttachMetrics(nullptr);
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
