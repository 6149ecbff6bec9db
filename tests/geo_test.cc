#include <cmath>

#include <gtest/gtest.h>

#include "geo/bbox.h"
#include "geo/latlng.h"
#include "geo/point.h"

namespace ecocharge {
namespace {

TEST(PointTest, Arithmetic) {
  Point a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_EQ(b / 2.0, (Point{1.5, -0.5}));
}

TEST(PointTest, DotAndCross) {
  Point a{1.0, 0.0}, b{0.0, 1.0};
  EXPECT_EQ(a.Dot(b), 0.0);
  EXPECT_EQ(a.Cross(b), 1.0);
  EXPECT_EQ(b.Cross(a), -1.0);
}

TEST(PointTest, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(DistanceSquared({0, 0}, {3, 4}), 25.0);
}

TEST(LatLngTest, HaversineKnownDistance) {
  // Berlin (52.52, 13.405) to Munich (48.1351, 11.582): ~504 km.
  double d = HaversineMeters({52.52, 13.405}, {48.1351, 11.582});
  EXPECT_NEAR(d, 504000.0, 5000.0);
}

TEST(LatLngTest, HaversineZeroAndSymmetry) {
  LatLng a{40.0, -75.0}, b{41.0, -73.0};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, a), 0.0);
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(ProjectionTest, RoundTripNearOrigin) {
  Projection proj(LatLng{53.14, 8.21});  // Oldenburg
  LatLng sample{53.20, 8.30};
  LatLng back = proj.Inverse(proj.Forward(sample));
  EXPECT_NEAR(back.lat, sample.lat, 1e-9);
  EXPECT_NEAR(back.lng, sample.lng, 1e-9);
}

TEST(ProjectionTest, DistancesMatchHaversineLocally) {
  Projection proj(LatLng{37.0, -120.0});
  LatLng a{37.05, -120.1}, b{36.95, -119.9};
  double planar = Distance(proj.Forward(a), proj.Forward(b));
  double sphere = HaversineMeters(a, b);
  EXPECT_NEAR(planar / sphere, 1.0, 0.01);
}

TEST(BoundingBoxTest, EmptyByDefault) {
  BoundingBox box;
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_EQ(box.Width(), 0.0);
}

TEST(BoundingBoxTest, ExtendAndContain) {
  BoundingBox box;
  box.Extend({1.0, 2.0});
  box.Extend({-1.0, 5.0});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_TRUE(box.Contains({0.0, 3.0}));
  EXPECT_TRUE(box.Contains({1.0, 2.0}));  // boundary counts
  EXPECT_FALSE(box.Contains({2.0, 3.0}));
  EXPECT_EQ(box.Width(), 2.0);
  EXPECT_EQ(box.Height(), 3.0);
  EXPECT_EQ(box.Center(), (Point{0.0, 3.5}));
}

TEST(BoundingBoxTest, Intersections) {
  BoundingBox a{{0, 0}, {2, 2}};
  BoundingBox b{{1, 1}, {3, 3}};
  BoundingBox c{{5, 5}, {6, 6}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  // Touching edges intersect.
  BoundingBox d{{2, 0}, {4, 2}};
  EXPECT_TRUE(a.Intersects(d));
}

TEST(BoundingBoxTest, DistanceToPoint) {
  BoundingBox box{{0, 0}, {2, 2}};
  EXPECT_EQ(box.DistanceTo({1, 1}), 0.0);  // inside
  EXPECT_EQ(box.DistanceTo({4, 1}), 2.0);  // right of box
  EXPECT_DOUBLE_EQ(box.DistanceTo({5, 6}), 5.0);  // corner 3-4-5
}

TEST(BoundingBoxTest, ExpandedAddsMargin) {
  BoundingBox box{{0, 0}, {1, 1}};
  BoundingBox bigger = box.Expanded(0.5);
  EXPECT_TRUE(bigger.Contains({-0.4, -0.4}));
  EXPECT_TRUE(bigger.Contains({1.4, 1.4}));
}

}  // namespace
}  // namespace ecocharge
