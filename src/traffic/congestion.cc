#include "traffic/congestion.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace ecocharge {

CongestionModel::CongestionModel(uint64_t seed) : seed_(seed) {}

namespace {

double Bump(double hour, double peak, double sigma) {
  double d = hour - peak;
  return std::exp(-d * d / (2.0 * sigma * sigma));
}

/// How strongly a road class reacts to rush hour (1 = full effect).
double ClassSensitivity(RoadClass rc) {
  switch (rc) {
    case RoadClass::kHighway:
      return 1.0;
    case RoadClass::kArterial:
      return 0.85;
    case RoadClass::kLocal:
      return 0.45;
  }
  return 0.5;
}

}  // namespace

double CongestionModel::ExpectedSpeedFactor(RoadClass road_class,
                                            SimTime t) const {
  double hour = HourOfDay(t);
  bool weekend = DayOfWeek(t) >= 5;
  double rush = Bump(hour, 8.0, 1.2) + Bump(hour, 17.5, 1.6);
  if (weekend) rush *= 0.3;
  double drop = 0.55 * ClassSensitivity(road_class) * std::min(rush, 1.0);
  return std::clamp(1.0 - drop, kMinSpeedFactor, 1.0);
}

double CongestionModel::ActualSpeedFactor(RoadClass road_class,
                                          SimTime t) const {
  uint64_t hour = static_cast<uint64_t>(std::max(0.0, t) / kSecondsPerHour);
  Rng noise(seed_ ^ hour * 0x9E3779B97F4A7C15ULL ^
            (static_cast<uint64_t>(road_class) + 1) * 0xBF58476D1CE4E5B9ULL);
  double factor =
      ExpectedSpeedFactor(road_class, t) * (1.0 + noise.NextGaussian(0.0, 0.08));
  return std::clamp(factor, kMinSpeedFactor, 1.0);
}

ClassFactors CongestionModel::ActualFactors(SimTime t) const {
  ClassFactors factors;
  for (int c = 0; c < kNumRoadClasses; ++c) {
    factors.f[c] = ActualSpeedFactor(static_cast<RoadClass>(c), t);
  }
  return factors;
}

CongestionModel::Band CongestionModel::ForecastSpeedFactor(
    RoadClass road_class, SimTime now, SimTime target) const {
  double actual = ActualSpeedFactor(road_class, target);
  double lead_hours = std::max(0.0, target - now) / kSecondsPerHour;
  double half = 0.06 + 0.03 * std::min(lead_hours, 6.0);
  uint64_t now_h = static_cast<uint64_t>(std::max(0.0, now) / kSecondsPerHour);
  uint64_t tgt_h =
      static_cast<uint64_t>(std::max(0.0, target) / kSecondsPerHour);
  Rng noise(seed_ ^ now_h * 0xA0761D6478BD642FULL ^
            tgt_h * 0xE7037ED1A0B428DBULL ^
            (static_cast<uint64_t>(road_class) + 1) * 0x8EBC6AF09C88C6E3ULL);
  double center = actual + noise.NextGaussian(0.0, half * 0.3);
  Band band;
  band.min = std::clamp(center - half, 0.10, 1.0);
  band.max = std::clamp(center + half, 0.10, 1.0);
  if (band.min > band.max) std::swap(band.min, band.max);
  return band;
}

}  // namespace ecocharge
