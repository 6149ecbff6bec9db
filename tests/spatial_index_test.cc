// Property tests run against both SpatialIndex implementations via
// TEST_P: the quadtree must agree exactly with the LinearScanIndex ground
// truth on kNN, range, and box queries over random clouds and lattices.

#include "spatial/spatial_index.h"

#include <algorithm>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "spatial/linear_scan.h"
#include "spatial/quadtree.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

enum class IndexKind { kLinear, kQuadTree };

std::unique_ptr<SpatialIndex> MakeIndex(IndexKind kind) {
  switch (kind) {
    case IndexKind::kLinear:
      return std::make_unique<LinearScanIndex>();
    case IndexKind::kQuadTree:
      return std::make_unique<QuadTree>();
  }
  return nullptr;
}

std::string KindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kLinear:
      return "Linear";
    case IndexKind::kQuadTree:
      return "QuadTree";
  }
  return "?";
}

class SpatialIndexTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(SpatialIndexTest, EmptyIndexReturnsNothing) {
  auto index = MakeIndex(GetParam());
  index->Build({});
  EXPECT_EQ(index->size(), 0u);
  EXPECT_TRUE(index->Knn({0, 0}, 3).empty());
  EXPECT_TRUE(index->RangeSearch({0, 0}, 100.0).empty());
  EXPECT_TRUE(index->BoxSearch(BoundingBox{{0, 0}, {1, 1}}).empty());
}

TEST_P(SpatialIndexTest, SinglePoint) {
  auto index = MakeIndex(GetParam());
  index->Build({{5.0, 5.0}});
  auto nn = index->Knn({0, 0}, 3);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 0u);
  EXPECT_NEAR(nn[0].distance, std::hypot(5.0, 5.0), 1e-12);
}

TEST_P(SpatialIndexTest, KnnMatchesLinearScan) {
  // A random cloud has no distance ties. On a 250 m lattice queried at
  // lattice points and cell centres, the k-th and (k+1)-th neighbours are
  // often equidistant, so the id tie-break at the cut decides the answer.
  std::vector<Point> lattice;
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 25; ++x) lattice.push_back({x * 250.0, y * 250.0});
  }
  for (bool on_lattice : {false, true}) {
    std::vector<Point> cloud =
        on_lattice ? lattice : testing_util::RandomCloud(500);
    auto truth = std::make_unique<LinearScanIndex>();
    auto index = MakeIndex(GetParam());
    truth->Build(cloud);
    index->Build(cloud);
    Rng rng(17);
    for (int trial = 0; trial < 60; ++trial) {
      Point q = on_lattice ? Point{125.0 * rng.NextBounded(50),
                                   125.0 * rng.NextBounded(40)}
                           : Point{rng.NextDouble(-1000.0, 11000.0),
                                   rng.NextDouble(-1000.0, 9000.0)};
      size_t k = 1 + rng.NextBounded(12);
      auto expected = truth->Knn(q, k);
      auto actual = index->Knn(q, k);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].id, expected[i].id)
            << (on_lattice ? "lattice" : "cloud") << " trial " << trial
            << " rank " << i;
        EXPECT_EQ(actual[i].distance, expected[i].distance);
      }
    }
  }
}

TEST_P(SpatialIndexTest, KnnWithKLargerThanN) {
  auto index = MakeIndex(GetParam());
  std::vector<Point> cloud = testing_util::RandomCloud(7);
  index->Build(cloud);
  auto nn = index->Knn({100, 100}, 50);
  EXPECT_EQ(nn.size(), 7u);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(nn[i - 1].distance, nn[i].distance);
  }
}

TEST_P(SpatialIndexTest, RangeMatchesLinearScan) {
  auto truth = std::make_unique<LinearScanIndex>();
  auto index = MakeIndex(GetParam());
  std::vector<Point> cloud = testing_util::RandomCloud(400);
  truth->Build(cloud);
  index->Build(cloud);
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    Point q{rng.NextDouble(0.0, 10000.0), rng.NextDouble(0.0, 8000.0)};
    double radius = rng.NextDouble(100.0, 4000.0);
    auto expected = truth->RangeSearch(q, radius);
    auto actual = index->RangeSearch(q, radius);
    ASSERT_EQ(actual.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id);
    }
  }
  // The range contract the filtering phase relies on: a point at exactly
  // distance R is returned (d <= R), and a NaN query position fails every
  // d <= R test, so it returns nothing even for a radius covering all.
  for (uint32_t id : {0u, 57u, 399u}) {
    const Point q{cloud[id].x + 312.5, cloud[id].y - 71.25};
    const double radius = Distance(cloud[id], q);
    auto actual = index->RangeSearch(q, radius);
    EXPECT_TRUE(std::any_of(actual.begin(), actual.end(),
                            [&](const Neighbor& nb) { return nb.id == id; }))
        << "point at exactly R dropped: id " << id;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(index->RangeSearch({nan, nan}, 1e9).empty());
  EXPECT_TRUE(index->RangeSearch({nan, 4000.0}, 1e9).empty());
}

TEST_P(SpatialIndexTest, BoxMatchesLinearScan) {
  auto truth = std::make_unique<LinearScanIndex>();
  auto index = MakeIndex(GetParam());
  std::vector<Point> cloud = testing_util::RandomCloud(400);
  truth->Build(cloud);
  index->Build(cloud);
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    Point lo{rng.NextDouble(0.0, 9000.0), rng.NextDouble(0.0, 7000.0)};
    BoundingBox box{lo, lo + Point{rng.NextDouble(100.0, 3000.0),
                                   rng.NextDouble(100.0, 3000.0)}};
    auto expected = truth->BoxSearch(box);
    auto actual = index->BoxSearch(box);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

TEST_P(SpatialIndexTest, DuplicatePointsAllRetrievable) {
  auto index = MakeIndex(GetParam());
  std::vector<Point> cloud(20, Point{3.0, 3.0});
  index->Build(cloud);
  auto nn = index->Knn({3.0, 3.0}, 20);
  EXPECT_EQ(nn.size(), 20u);
  auto in_range = index->RangeSearch({3.0, 3.0}, 0.1);
  EXPECT_EQ(in_range.size(), 20u);
}

TEST_P(SpatialIndexTest, CollinearPoints) {
  auto index = MakeIndex(GetParam());
  std::vector<Point> cloud;
  for (int i = 0; i < 100; ++i) cloud.push_back({static_cast<double>(i), 0.0});
  index->Build(cloud);
  auto nn = index->Knn({49.6, 0.0}, 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0].id, 50u);
  EXPECT_EQ(nn[1].id, 49u);
  EXPECT_EQ(nn[2].id, 51u);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, SpatialIndexTest,
                         ::testing::Values(IndexKind::kLinear,
                                           IndexKind::kQuadTree),
                         [](const auto& info) {
                           return KindName(info.param);
                         });

}  // namespace
}  // namespace ecocharge
