#ifndef ECOCHARGE_ENERGY_PRODUCTION_H_
#define ECOCHARGE_ENERGY_PRODUCTION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "energy/charger.h"
#include "energy/solar.h"
#include "energy/weather.h"

namespace ecocharge {

/// \brief A CDGS-style 15-minute PV production trace for one site.
///
/// "California Distributed Generation Statistics" publishes solar output in
/// 15-minute intervals; this reproduces that artifact from the clear-sky
/// model and a realized weather sequence.
class ProductionTrace {
 public:
  /// Slot duration matching CDGS.
  static constexpr double kSlotSeconds = 15.0 * kSecondsPerMinute;

  /// Generates the trace for [start, end) at 15-minute resolution.
  static Result<ProductionTrace> Generate(double pv_capacity_kw,
                                          const SolarModel& solar,
                                          WeatherProcess* weather,
                                          SimTime start, SimTime end);

  SimTime start() const { return start_; }
  size_t num_slots() const { return kwh_per_slot_.size(); }
  const std::vector<double>& kwh_per_slot() const { return kwh_per_slot_; }

  /// Produced energy in [t0, t1), kWh, with partial-slot proration.
  /// Times outside the trace contribute zero.
  double EnergyBetween(SimTime t0, SimTime t1) const;

 private:
  SimTime start_ = 0.0;
  std::vector<double> kwh_per_slot_;
};

/// \brief Min/max forecast band for energy over a window, kWh.
struct EnergyForecast {
  double min_kwh = 0.0;
  double max_kwh = 0.0;
};

/// \brief Answers "how much clean energy will charger b offer in my arrival
/// window?" — both the realized truth and the forecast interval that forms
/// the L estimated component.
///
/// All chargers share one regional weather process (the paper's forecast is
/// per-city); per-site variation comes from PV capacity and charger rate.
///
/// Thread safety: safe for concurrent calls. The solar model is const, the
/// forecaster is a pure function of (seed, now, target), and the weather
/// process — the only mutating state on this path — synchronizes its lazy
/// hour-sequence extension internally (see WeatherProcess).
class SolarEnergyService {
 public:
  SolarEnergyService(const SolarModel& solar, const ClimateParams& climate,
                     uint64_t seed);

  /// Realized deliverable energy for `charger` over [t0, t0 + window_s]:
  /// PV production capped by the charger's delivery rate.
  double ActualEnergyKwh(const EvCharger& charger, SimTime t0,
                         double window_s);

  /// Forecast interval issued at `now` for [target, target + window_s].
  EnergyForecast ForecastEnergyKwh(const EvCharger& charger, SimTime now,
                                   SimTime target, double window_s);

  /// Upper bound on deliverable energy for any charger in `fleet` over a
  /// window of `window_s` — the normalization constant for the L score
  /// ("environment's maximum charging level", eq. 1 context).
  double MaxDeliverableKwh(const std::vector<EvCharger>& fleet,
                           double window_s) const;

  WeatherProcess& weather() { return weather_; }
  const SolarModel& solar() const { return solar_; }

 private:
  /// PV energy over [t0, t0 + window_s], capped by the charger's delivery
  /// rate, under the forecast transmission band (min_kwh from its lower
  /// edge, max_kwh from its upper), or under the realized transmission in
  /// both fields when `band` is null. Each slot's clear-sky irradiance is
  /// evaluated once for both edges.
  EnergyForecast IntegrateKwh(const EvCharger& charger, SimTime t0,
                              double window_s,
                              const WeatherForecaster::Forecast* band);

  SolarModel solar_;
  WeatherProcess weather_;
  WeatherForecaster forecaster_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_ENERGY_PRODUCTION_H_
