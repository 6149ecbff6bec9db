#ifndef ECOCHARGE_ENERGY_PRODUCTION_H_
#define ECOCHARGE_ENERGY_PRODUCTION_H_

#include <algorithm>
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

/// \brief The charger-independent half of a forecast: the transmission band
/// issued at `now` for `target`, and each 15-minute slot of [target,
/// target + window_s] with its clear-sky irradiance (kW per kWp) and length.
///
/// SolarEnergyService::BuildWindow prices one; Energy() then answers for
/// any charger with a few multiply-adds per slot. Only the site's PV
/// capacity and charge rate vary between chargers, so a batch of chargers
/// sharing an arrival bucket shares one window.
class SolarWindow {
 public:
  /// The forecast band for `charger` over this window, bit-identical to
  /// pricing the window for that charger alone.
  EnergyForecast Energy(const EvCharger& charger) const;

  /// The window's clear-sky kWh per kWp at the band's upper
  /// transmission, raised by a 1e-9 relative margin: EnergyCeilingKwh(c,
  /// this, window) >= Energy(c).max_kwh for every charger c. The margin is
  /// far above the few ulps by which rounding can put Energy's per-slot
  /// sum of pv * irradiance terms above pv times the sum.
  double MaxKwhPerKwp() const { return max_kwh_per_kwp_; }

  SimTime target() const { return target_; }

  /// True when BuildWindow last priced this window for exactly these
  /// arguments: a window is a pure function of them.
  bool PricedFor(SimTime now, SimTime target, double window_s) const {
    return now_ == now && target_ == target && window_s_ == window_s;
  }

 private:
  friend class SolarEnergyService;

  struct Slot {
    double irradiance;  ///< ClearSkyIrradiance(slot middle) / 1000
    double dt;          ///< slot length, s (the last one may be partial)
  };

  WeatherForecaster::Forecast band_;
  SimTime now_ = -1.0;
  SimTime target_ = 0.0;
  double window_s_ = 0.0;
  double max_kwh_per_kwp_ = 0.0;  ///< MaxEnergyKwh's margined sum
  std::vector<Slot> slots_;
};

/// The L ceiling of `charger` over a `window_s` charge whose clear-sky
/// energy per kWp is at most `kwh_per_kwp`: one multiply, capped by the
/// charge rate over the window exactly as every forecast is (0 for an
/// empty window, whose forecast is 0).
inline double EnergyCeilingKwh(const EvCharger& charger, double kwh_per_kwp,
                               double window_s) {
  if (!(window_s > 0.0)) return 0.0;
  return std::min(charger.pv_capacity_kw * kwh_per_kwp,
                  charger.RateKw() * window_s / kSecondsPerHour);
}

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

  /// Forecast interval issued at `now` for [target, target + window_s]:
  /// BuildWindow, then SolarWindow::Energy. One call costs a forecaster
  /// draw (a weather-mutex lock, an Rng seed, a Gaussian) plus one
  /// clear-sky irradiance (5 trig calls, an asin, a pow) per 15-minute
  /// slot — a 1 h window has 4 — and allocates the window's slot array.
  /// Batch callers price one SolarWindow per target bucket instead and
  /// reuse it for every charger arriving in it.
  EnergyForecast ForecastEnergyKwh(const EvCharger& charger, SimTime now,
                                   SimTime target, double window_s);

  /// Prices the charger-independent half of ForecastEnergyKwh(., now,
  /// target, window_s) into `*window`, reusing its slot storage.
  void BuildWindow(SimTime now, SimTime target, double window_s,
                   SolarWindow* window);

  /// Upper bound on deliverable energy for any charger in `fleet` over a
  /// window of `window_s` — the normalization constant for the L score
  /// ("environment's maximum charging level", eq. 1 context).
  double MaxDeliverableKwh(const std::vector<EvCharger>& fleet,
                           double window_s) const;

  WeatherProcess& weather() { return weather_; }
  WeatherForecaster& forecaster() { return forecaster_; }
  const SolarModel& solar() const { return solar_; }

 private:
  SolarModel solar_;
  WeatherProcess weather_;
  WeatherForecaster forecaster_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_ENERGY_PRODUCTION_H_
