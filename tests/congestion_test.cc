#include "traffic/congestion.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace ecocharge {
namespace {

TEST(CongestionTest, RushHourSlowsTraffic) {
  CongestionModel model(5);
  SimTime tue = kSecondsPerDay;
  double rush = model.ExpectedSpeedFactor(RoadClass::kHighway,
                                          tue + 8.0 * kSecondsPerHour);
  double night = model.ExpectedSpeedFactor(RoadClass::kHighway,
                                           tue + 3.0 * kSecondsPerHour);
  EXPECT_LT(rush, night - 0.2);
}

TEST(CongestionTest, WeekendIsMilder) {
  CongestionModel model(5);
  SimTime tue = kSecondsPerDay + 8.0 * kSecondsPerHour;
  SimTime sun = 6 * kSecondsPerDay + 8.0 * kSecondsPerHour;
  EXPECT_GT(model.ExpectedSpeedFactor(RoadClass::kArterial, sun),
            model.ExpectedSpeedFactor(RoadClass::kArterial, tue));
}

TEST(CongestionTest, LocalRoadsLessSensitive) {
  CongestionModel model(5);
  SimTime rush = kSecondsPerDay + 8.0 * kSecondsPerHour;
  EXPECT_GT(model.ExpectedSpeedFactor(RoadClass::kLocal, rush),
            model.ExpectedSpeedFactor(RoadClass::kHighway, rush));
}

TEST(CongestionTest, FactorsBounded) {
  CongestionModel model(5);
  for (int h = 0; h < 24 * 14; ++h) {
    for (RoadClass rc : {RoadClass::kHighway, RoadClass::kArterial,
                         RoadClass::kLocal}) {
      double expected = model.ExpectedSpeedFactor(rc, h * kSecondsPerHour);
      double actual = model.ActualSpeedFactor(rc, h * kSecondsPerHour);
      EXPECT_GE(expected, 0.15);
      EXPECT_LE(expected, 1.0);
      EXPECT_GE(actual, 0.15);
      EXPECT_LE(actual, 1.0);
    }
  }
}

TEST(CongestionTest, ActualIsDeterministicPerHour) {
  CongestionModel model(5);
  SimTime t = 10.2 * kSecondsPerHour;
  double a = model.ActualSpeedFactor(RoadClass::kArterial, t);
  EXPECT_EQ(model.ActualSpeedFactor(RoadClass::kArterial, t), a);
}

TEST(CongestionTest, ForecastBandContainsCenterAndIsPure) {
  CongestionModel model(5);
  SimTime now = 9.0 * kSecondsPerHour;
  auto a = model.ForecastSpeedFactor(RoadClass::kHighway, now,
                                     now + kSecondsPerHour);
  auto b = model.ForecastSpeedFactor(RoadClass::kHighway, now,
                                     now + kSecondsPerHour);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_LE(a.min, a.max);
}

TEST(CongestionTest, ForecastWidensWithLead) {
  CongestionModel model(5);
  double near_total = 0.0, far_total = 0.0;
  for (int d = 0; d < 20; ++d) {
    SimTime now = d * kSecondsPerDay + 9.0 * kSecondsPerHour;
    auto near = model.ForecastSpeedFactor(RoadClass::kArterial, now,
                                          now + 0.1 * kSecondsPerHour);
    auto far = model.ForecastSpeedFactor(RoadClass::kArterial, now,
                                         now + 6.0 * kSecondsPerHour);
    near_total += near.max - near.min;
    far_total += far.max - far.min;
  }
  EXPECT_GT(far_total, near_total);
}

TEST(CongestionTest, ForecastUsuallyContainsRealized) {
  CongestionModel model(5);
  int contained = 0, total = 0;
  for (int h = 0; h < 500; ++h) {
    SimTime now = h * kSecondsPerHour;
    SimTime target = now + 2.0 * kSecondsPerHour;
    auto band = model.ForecastSpeedFactor(RoadClass::kArterial, now, target);
    double truth = model.ActualSpeedFactor(RoadClass::kArterial, target);
    if (truth >= band.min - 1e-9 && truth <= band.max + 1e-9) ++contained;
    ++total;
  }
  EXPECT_GT(static_cast<double>(contained) / total, 0.85);
}

TEST(CongestionTest, ClassFactorsCostMatchesPerArcFactorBitwise) {
  // The derouting hot paths price arcs through ClassFactors; the bits must
  // be those of the per-arc model call they replace.
  CongestionModel model(5);
  const SimTime tue = kSecondsPerDay;
  const SimTime bucket = 900.0;
  const SimTime taus[] = {
      0.0,
      tue + 8.0 * kSecondsPerHour - 1e-6,   // just before an hour boundary
      tue + 8.0 * kSecondsPerHour,          // on it
      tue + 17.0 * kSecondsPerHour - 0.5,
      5 * kSecondsPerDay + 17.5 * kSecondsPerHour,  // Saturday rush
      6 * kSecondsPerDay + 8.0 * kSecondsPerHour,   // Sunday rush
      -100.0,
      -kSecondsPerHour - 0.5,
      std::floor((tue + 16.37 * kSecondsPerHour) / bucket) * bucket,
  };
  Rng rng(11);
  for (SimTime tau : taus) {
    const ClassFactors factors = model.ActualFactors(tau);
    for (RoadClass rc : {RoadClass::kHighway, RoadClass::kArterial,
                         RoadClass::kLocal}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(factors[rc]),
                std::bit_cast<uint64_t>(model.ActualSpeedFactor(rc, tau)))
          << "tau=" << tau << " class=" << static_cast<int>(rc);
      for (int i = 0; i < 50; ++i) {
        Arc arc;
        arc.road_class = rc;
        arc.length_m = i == 0 ? 1e-3 : rng.NextDouble(1.0, 5000.0);
        const double want =
            arc.length_m / model.ActualSpeedFactor(arc.road_class, tau);
        EXPECT_EQ(std::bit_cast<uint64_t>(factors.Cost(arc)),
                  std::bit_cast<uint64_t>(want))
            << "tau=" << tau << " class=" << static_cast<int>(rc)
            << " length=" << arc.length_m;
      }
    }
  }
}

}  // namespace
}  // namespace ecocharge
