#include "energy/production.h"

#include <algorithm>
#include <cmath>

namespace ecocharge {

Result<ProductionTrace> ProductionTrace::Generate(double pv_capacity_kw,
                                                  const SolarModel& solar,
                                                  WeatherProcess* weather,
                                                  SimTime start, SimTime end) {
  if (pv_capacity_kw < 0.0) {
    return Status::InvalidArgument("pv capacity must be non-negative");
  }
  if (end < start) {
    return Status::InvalidArgument("end precedes start");
  }
  ProductionTrace trace;
  trace.start_ = start;
  size_t slots = static_cast<size_t>(std::ceil((end - start) / kSlotSeconds));
  trace.kwh_per_slot_.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    SimTime mid = start + (static_cast<double>(i) + 0.5) * kSlotSeconds;
    double irradiance = solar.ClearSkyIrradiance(mid);
    double power_kw =
        pv_capacity_kw * (irradiance / 1000.0) * weather->TransmissionAt(mid);
    trace.kwh_per_slot_.push_back(power_kw * kSlotSeconds /
                                  kSecondsPerHour);
  }
  return trace;
}

double ProductionTrace::EnergyBetween(SimTime t0, SimTime t1) const {
  if (t1 <= t0 || kwh_per_slot_.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < kwh_per_slot_.size(); ++i) {
    SimTime slot_start = start_ + static_cast<double>(i) * kSlotSeconds;
    SimTime slot_end = slot_start + kSlotSeconds;
    double overlap =
        std::min(t1, slot_end) - std::max(t0, slot_start);
    if (overlap > 0.0) {
      total += kwh_per_slot_[i] * (overlap / kSlotSeconds);
    }
  }
  return total;
}

SolarEnergyService::SolarEnergyService(const SolarModel& solar,
                                       const ClimateParams& climate,
                                       uint64_t seed)
    : solar_(solar),
      weather_(climate, seed),
      forecaster_(&weather_, seed ^ 0xF0F0F0F0ULL) {}

EnergyForecast SolarWindow::Energy(const EvCharger& charger) const {
  EnergyForecast out;
  if (window_s_ <= 0.0) return out;
  for (const Slot& slot : slots_) {
    double clear_kw = charger.pv_capacity_kw * slot.irradiance;
    out.min_kwh += clear_kw * band_.transmission_min * slot.dt /
                   kSecondsPerHour;
    out.max_kwh += clear_kw * band_.transmission_max * slot.dt /
                   kSecondsPerHour;
  }
  // Delivery is capped by the charger's rate over the window.
  double cap_kwh = charger.RateKw() * window_s_ / kSecondsPerHour;
  out.min_kwh = std::min(out.min_kwh, cap_kwh);
  out.max_kwh = std::min(out.max_kwh, cap_kwh);
  return out;
}

void SolarEnergyService::BuildWindow(SimTime now, SimTime target,
                                     double window_s, SolarWindow* window) {
  window->band_ = forecaster_.ForecastTransmission(now, target);
  window->now_ = now;
  window->target_ = target;
  window->window_s_ = window_s;
  window->slots_.clear();
  double kwh_per_kwp = 0.0;
  const double step = ProductionTrace::kSlotSeconds;
  for (double offset = 0.0; offset < window_s; offset += step) {
    double dt = std::min(step, window_s - offset);
    SimTime mid = target + offset + dt / 2.0;
    window->slots_.push_back({solar_.ClearSkyIrradiance(mid) / 1000.0, dt});
    kwh_per_kwp += window->slots_.back().irradiance *
                   window->band_.transmission_max * dt / kSecondsPerHour;
  }
  window->max_kwh_per_kwp_ = kwh_per_kwp * (1.0 + 1e-9);
}

double SolarEnergyService::ActualEnergyKwh(const EvCharger& charger,
                                           SimTime t0, double window_s) {
  if (window_s <= 0.0) return 0.0;
  double kwh = 0.0;
  const double step = ProductionTrace::kSlotSeconds;
  for (double offset = 0.0; offset < window_s; offset += step) {
    double dt = std::min(step, window_s - offset);
    SimTime mid = t0 + offset + dt / 2.0;
    double clear_kw =
        charger.pv_capacity_kw * (solar_.ClearSkyIrradiance(mid) / 1000.0);
    kwh += clear_kw * weather_.TransmissionAt(mid) * dt / kSecondsPerHour;
  }
  // Delivery is capped by the charger's rate over the window.
  return std::min(kwh, charger.RateKw() * window_s / kSecondsPerHour);
}

EnergyForecast SolarEnergyService::ForecastEnergyKwh(const EvCharger& charger,
                                                     SimTime now,
                                                     SimTime target,
                                                     double window_s) {
  SolarWindow window;
  BuildWindow(now, target, window_s, &window);
  return window.Energy(charger);
}

double SolarEnergyService::MaxDeliverableKwh(
    const std::vector<EvCharger>& fleet, double window_s) const {
  double best = 0.0;
  for (const EvCharger& c : fleet) {
    double cap = std::min(c.RateKw(), c.pv_capacity_kw);
    best = std::max(best, cap);
  }
  return best * window_s / kSecondsPerHour;
}

}  // namespace ecocharge
