#include "energy/production.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "eis/information_server.h"

namespace ecocharge {
namespace {

EvCharger TestCharger(ChargerType type = ChargerType::kAc22,
                      double pv_kw = 40.0) {
  EvCharger c;
  c.id = 1;
  c.type = type;
  c.pv_capacity_kw = pv_kw;
  return c;
}

TEST(ProductionTraceTest, SlotsCoverRequestedSpan) {
  SolarModel solar;
  WeatherProcess weather(ClimateParams{}, 3);
  auto trace = ProductionTrace::Generate(30.0, solar, &weather, 0.0,
                                         kSecondsPerDay)
                   .MoveValueUnsafe();
  EXPECT_EQ(trace.num_slots(), 96u);  // 24h at 15-min
}

TEST(ProductionTraceTest, NightSlotsAreZero) {
  SolarModel solar;
  WeatherProcess weather(ClimateParams{}, 3);
  auto trace = ProductionTrace::Generate(30.0, solar, &weather, 0.0,
                                         kSecondsPerDay)
                   .MoveValueUnsafe();
  // Slots 0..3 are 00:00-01:00.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.kwh_per_slot()[i], 0.0);
  }
  // Midday slot produces.
  EXPECT_GT(trace.kwh_per_slot()[48], 0.0);
}

TEST(ProductionTraceTest, EnergyBetweenProrates) {
  SolarModel solar;
  WeatherProcess weather(ClimateParams{1.0, 1.0}, 3);  // always sunny-ish
  auto trace = ProductionTrace::Generate(30.0, solar, &weather, 0.0,
                                         kSecondsPerDay)
                   .MoveValueUnsafe();
  double full = trace.EnergyBetween(0.0, kSecondsPerDay);
  double halves = trace.EnergyBetween(0.0, kSecondsPerDay / 2) +
                  trace.EnergyBetween(kSecondsPerDay / 2, kSecondsPerDay);
  EXPECT_NEAR(full, halves, 1e-9);
  // Partial slot: half of slot 48.
  double slot48 = trace.kwh_per_slot()[48];
  double t0 = 48 * ProductionTrace::kSlotSeconds;
  EXPECT_NEAR(
      trace.EnergyBetween(t0, t0 + ProductionTrace::kSlotSeconds / 2),
      slot48 / 2, 1e-9);
}

TEST(ProductionTraceTest, OutOfRangeContributesZero) {
  SolarModel solar;
  WeatherProcess weather(ClimateParams{}, 3);
  auto trace =
      ProductionTrace::Generate(30.0, solar, &weather, 0.0, kSecondsPerHour)
          .MoveValueUnsafe();
  EXPECT_EQ(trace.EnergyBetween(-100.0, 0.0), 0.0);
  EXPECT_EQ(trace.EnergyBetween(kSecondsPerDay, 2 * kSecondsPerDay), 0.0);
  EXPECT_EQ(trace.EnergyBetween(50.0, 50.0), 0.0);
}

TEST(ProductionTraceTest, RejectsBadArgs) {
  SolarModel solar;
  WeatherProcess weather(ClimateParams{}, 3);
  EXPECT_FALSE(
      ProductionTrace::Generate(-1.0, solar, &weather, 0.0, 100.0).ok());
  EXPECT_FALSE(
      ProductionTrace::Generate(10.0, solar, &weather, 100.0, 0.0).ok());
}

TEST(SolarEnergyServiceTest, ActualEnergyCappedByRate) {
  SolarModel solar;
  SolarEnergyService service(solar, ClimateParams{1.0, 1.0}, 5);
  // Tiny 11 kW AC charger with huge PV: one hour at noon delivers at most
  // 11 kWh.
  EvCharger small = TestCharger(ChargerType::kAc11, 500.0);
  SimTime noon = 12.0 * kSecondsPerHour;
  double kwh = service.ActualEnergyKwh(small, noon, kSecondsPerHour);
  EXPECT_LE(kwh, 11.0 + 1e-9);
  EXPECT_GT(kwh, 5.0);
}

TEST(SolarEnergyServiceTest, ActualEnergyZeroAtNight) {
  SolarModel solar;
  SolarEnergyService service(solar, ClimateParams{}, 5);
  double kwh = service.ActualEnergyKwh(TestCharger(), 0.0, kSecondsPerHour);
  EXPECT_EQ(kwh, 0.0);
}

TEST(SolarEnergyServiceTest, ForecastBracketsOrdered) {
  SolarModel solar;
  SolarEnergyService service(solar, ClimateParams{}, 5);
  EvCharger c = TestCharger();
  for (int h = 6; h < 20; ++h) {
    EnergyForecast f = service.ForecastEnergyKwh(
        c, h * kSecondsPerHour, (h + 1) * kSecondsPerHour, kSecondsPerHour);
    EXPECT_LE(f.min_kwh, f.max_kwh);
    EXPECT_GE(f.min_kwh, 0.0);
  }
}

TEST(SolarEnergyServiceTest, MaxDeliverableScalesWithWindow) {
  SolarModel solar;
  SolarEnergyService service(solar, ClimateParams{}, 5);
  std::vector<EvCharger> fleet = {TestCharger(ChargerType::kAc11, 100.0),
                                  TestCharger(ChargerType::kDc50, 30.0)};
  // Best deliverable per hour: min(50, 30) = 30 kWh beats min(11, 100).
  EXPECT_DOUBLE_EQ(service.MaxDeliverableKwh(fleet, kSecondsPerHour), 30.0);
  EXPECT_DOUBLE_EQ(service.MaxDeliverableKwh(fleet, kSecondsPerHour / 2),
                   15.0);
}

TEST(SolarEnergyServiceTest, BiggerPvProducesMore) {
  SolarModel solar;
  SolarEnergyService service(solar, ClimateParams{1.0, 1.0}, 5);
  SimTime noon = 12.0 * kSecondsPerHour;
  double small = service.ActualEnergyKwh(
      TestCharger(ChargerType::kDc150, 20.0), noon, kSecondsPerHour);
  double large = service.ActualEnergyKwh(
      TestCharger(ChargerType::kDc150, 80.0), noon, kSecondsPerHour);
  EXPECT_GT(large, small * 2);
}

// The per-charger band loop ForecastEnergyKwh ran before forecasts were
// split into a shared SolarWindow and a per-charger Energy(): the band and
// every slot's irradiance are priced for this one charger. Kept here as an
// independent reference for the split.
EnergyForecast PerChargerForecast(SolarEnergyService& service,
                                  const EvCharger& charger, SimTime now,
                                  SimTime target, double window_s) {
  const WeatherForecaster::Forecast band =
      service.forecaster().ForecastTransmission(now, target);
  EnergyForecast out;
  if (window_s <= 0.0) return out;
  const double step = ProductionTrace::kSlotSeconds;
  for (double offset = 0.0; offset < window_s; offset += step) {
    double dt = std::min(step, window_s - offset);
    SimTime mid = target + offset + dt / 2.0;
    double clear_kw = charger.pv_capacity_kw *
                      (service.solar().ClearSkyIrradiance(mid) / 1000.0);
    double lo = band.transmission_min;
    double hi = band.transmission_max;
    out.min_kwh += clear_kw * lo * dt / kSecondsPerHour;
    out.max_kwh += clear_kw * hi * dt / kSecondsPerHour;
  }
  double cap_kwh = charger.RateKw() * window_s / kSecondsPerHour;
  out.min_kwh = std::min(out.min_kwh, cap_kwh);
  out.max_kwh = std::min(out.max_kwh, cap_kwh);
  return out;
}

bool SameBits(const EnergyForecast& a, const EnergyForecast& b) {
  return std::bit_cast<uint64_t>(a.min_kwh) ==
             std::bit_cast<uint64_t>(b.min_kwh) &&
         std::bit_cast<uint64_t>(a.max_kwh) ==
             std::bit_cast<uint64_t>(b.max_kwh);
}

// Sites whose rate cap binds (small AC, big PV) and sites it does not.
std::vector<EvCharger> MixedFleet(size_t n) {
  const ChargerType types[] = {ChargerType::kAc11, ChargerType::kAc22,
                               ChargerType::kDc50, ChargerType::kDc150};
  std::vector<EvCharger> fleet(n);
  for (size_t i = 0; i < n; ++i) {
    fleet[i].id = static_cast<ChargerId>(i);
    fleet[i].type = types[i % 4];
    fleet[i].pv_capacity_kw = 5.0 + 17.3 * static_cast<double>(i % 23);
  }
  return fleet;
}

// Windows 0 s, one slot, a partial last slot, 1 h, 8 h, the wire maximum.
constexpr double kWindows[] = {0.0,    900.0,          1000.0,
                               3600.0, 8.0 * 3600.0,   86400.0};

TEST(SolarWindowTest, ForecastEnergyKwhMatchesPerChargerLoopBitwise) {
  SolarEnergyService service(SolarModel{}, ClimateParams{}, 21);
  const std::vector<EvCharger> fleet = MixedFleet(8);
  // Night, dawn and midday on a winter and a summer day.
  std::vector<SimTime> targets;
  for (double day : {0.0, 180.0}) {
    for (double hour : {2.0, 6.5, 12.0}) {
      targets.push_back(day * kSecondsPerDay + hour * kSecondsPerHour);
    }
  }
  size_t producing = 0;
  for (double window_s : kWindows) {
    for (SimTime target : targets) {
      // Issued 3 h ahead, at the target, and 2 h after it (now > target).
      for (double lead : {3.0 * kSecondsPerHour, 0.0,
                          -2.0 * kSecondsPerHour}) {
        const SimTime now = target - lead;
        for (const EvCharger& c : fleet) {
          EnergyForecast got =
              service.ForecastEnergyKwh(c, now, target, window_s);
          EnergyForecast want =
              PerChargerForecast(service, c, now, target, window_s);
          EXPECT_TRUE(SameBits(got, want))
              << "window " << window_s << " target " << target << " now "
              << now << " charger " << c.id << ": " << got.min_kwh << ","
              << got.max_kwh << " vs " << want.min_kwh << "," << want.max_kwh;
          if (want.max_kwh > 0.0) ++producing;
        }
      }
    }
  }
  EXPECT_GT(producing, 0u);  // the comparison covers nonzero sums
}

TEST(SolarWindowTest, ForecastBatchMatchesPerChargerLoopBitwise) {
  SolarEnergyService service(SolarModel{}, ClimateParams{}, 22);
  AvailabilityService availability(23);
  CongestionModel congestion(24);
  const std::vector<EvCharger> fleet = MixedFleet(400);
  const SimTime now = 9.0 * kSecondsPerHour + 437.0;  // mid-bucket
  const double bucket = 15.0 * kSecondsPerMinute;
  const SimTime snapped_now = 9.0 * kSecondsPerHour;
  // 200 distinct target buckets, each shared by two chargers, from 6 h
  // before `now` (now > target, dawn) through the afternoon and the night,
  // at offsets inside the bucket.
  std::vector<const EvCharger*> chargers;
  std::vector<SimTime> targets;
  for (size_t i = 0; i < fleet.size(); ++i) {
    chargers.push_back(&fleet[i]);
    const double b = static_cast<double>(i % 200) - 24.0;
    targets.push_back(snapped_now + b * bucket +
                      static_cast<double>((i * 37) % 900));
  }
  for (double window_s : kWindows) {
    InformationServer eis(&service, &availability, &congestion);
    ForecastBatch batch;
    eis.GetForecastBatch(chargers, targets, now, window_s, &batch);
    ASSERT_EQ(batch.energy.size(), fleet.size());
    size_t producing = 0;
    for (size_t i = 0; i < fleet.size(); ++i) {
      const SimTime snapped_target =
          std::floor(targets[i] / bucket) * bucket;
      EnergyForecast want = PerChargerForecast(
          service, *chargers[i], snapped_now, snapped_target, window_s);
      EXPECT_TRUE(SameBits(batch.energy[i], want))
          << "window " << window_s << " candidate " << i;
      if (want.max_kwh > 0.0) ++producing;
    }
    EXPECT_EQ(eis.Snapshot().weather_api_calls, fleet.size());
    if (window_s > 0.0) {
      EXPECT_GT(producing, 0u);
    }
  }
}

}  // namespace
}  // namespace ecocharge
