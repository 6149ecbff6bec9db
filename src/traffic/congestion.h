#ifndef ECOCHARGE_TRAFFIC_CONGESTION_H_
#define ECOCHARGE_TRAFFIC_CONGESTION_H_

#include <cstdint>

#include "common/simtime.h"
#include "graph/road_network.h"

namespace ecocharge {

/// \brief The realized speed factor of every road class at one cost time.
///
/// Built by CongestionModel::ActualFactors(tau). A derouting batch prices
/// every arc at one cost time, so it needs only these three values; Cost()
/// divides exactly as `a.length_m / ActualSpeedFactor(a.road_class, tau)`
/// does (a division, not a multiply by the reciprocal), so every sum built
/// from it keeps its bits.
struct ClassFactors {
  double f[kNumRoadClasses] = {1.0, 1.0, 1.0};

  double operator[](RoadClass c) const { return f[static_cast<int>(c)]; }

  /// Congested length of `a`: its length over its class's speed factor.
  double Cost(const Arc& a) const {
    return a.length_m / (*this)[a.road_class];
  }
};

/// \brief Time-of-day traffic model.
///
/// Produces a speed factor in (0, 1]: the fraction of free-flow speed
/// actually achievable on a road class at a given time. Weekday rush hours
/// (7-9, 16-19) depress highways and arterials most; weekends are mild.
/// The realized factor adds deterministic per-hour noise around the
/// profile; forecasts return a band that widens with lead time — the D
/// estimated component's uncertainty source.
///
/// Thread safety: every method is const and a pure function of (seed_,
/// inputs) — the model holds no mutable state, so concurrent reads from
/// the serving workers need no synchronization.
class CongestionModel {
 public:
  /// Hard floor of the realized speed factor: ActualSpeedFactor clamps to
  /// [kMinSpeedFactor, 1], so every derouting class weight lies in
  /// [1, 1/kMinSpeedFactor].
  static constexpr double kMinSpeedFactor = 0.15;

  explicit CongestionModel(uint64_t seed);

  /// The deterministic diurnal profile (no noise).
  double ExpectedSpeedFactor(RoadClass road_class, SimTime t) const;

  /// Realized factor: profile x noise(seed, class, hour), clamped to
  /// [0.15, 1]. Each call evaluates two `exp`s, an hour/day split and a
  /// seeded Gaussian draw (80-100 ns on a 4-vCPU Xeon), so hot paths do not
  /// call it per arc: they price one ClassFactors per cost time with
  /// ActualFactors().
  double ActualSpeedFactor(RoadClass road_class, SimTime t) const;

  /// ActualSpeedFactor of every road class at `t`.
  ClassFactors ActualFactors(SimTime t) const;

  /// \brief Min/max band on the speed factor.
  struct Band {
    double min = 0.15;
    double max = 1.0;
  };

  /// Forecast band issued at `now` for `target`; pure in its inputs.
  Band ForecastSpeedFactor(RoadClass road_class, SimTime now,
                           SimTime target) const;

 private:
  uint64_t seed_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_TRAFFIC_CONGESTION_H_
