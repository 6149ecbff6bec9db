#include "eis/information_server.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace ecocharge {
namespace {

class InformationServerTest : public ::testing::Test {
 protected:
  InformationServerTest()
      : energy_(SolarModel{}, ClimateParams{}, 11),
        availability_(12),
        congestion_(13),
        server_(&energy_, &availability_, &congestion_) {}

  EvCharger Charger(ChargerId id = 0) {
    EvCharger c;
    c.id = id;
    c.pv_capacity_kw = 40.0;
    c.type = ChargerType::kAc22;
    return c;
  }

  SolarEnergyService energy_;
  AvailabilityService availability_;
  CongestionModel congestion_;
  InformationServer server_;
};

TEST_F(InformationServerTest, CachesIdenticalRequests) {
  EvCharger c = Charger();
  SimTime now = 9.0 * kSecondsPerHour;
  SimTime target = now + 1800.0;
  EnergyForecast a = server_.GetEnergyForecast(c, now, target, 3600.0);
  EnergyForecast b = server_.GetEnergyForecast(c, now, target, 3600.0);
  EXPECT_EQ(a.min_kwh, b.min_kwh);
  EXPECT_EQ(a.max_kwh, b.max_kwh);
  EisCallStats stats = server_.Stats();
  EXPECT_EQ(stats.weather_api_calls, 1u);
  EXPECT_EQ(stats.weather_cache.hits, 1u);
}

TEST_F(InformationServerTest, SameBucketSharesResponse) {
  // Two targets inside the same 15-minute bucket produce one upstream call.
  EvCharger c = Charger();
  SimTime now = 9.0 * kSecondsPerHour;
  server_.GetEnergyForecast(c, now, now + 60.0, 3600.0);
  server_.GetEnergyForecast(c, now, now + 500.0, 3600.0);
  EXPECT_EQ(server_.Stats().weather_api_calls, 1u);
}

TEST_F(InformationServerTest, DifferentBucketsDifferentCalls) {
  EvCharger c = Charger();
  SimTime now = 9.0 * kSecondsPerHour;
  server_.GetEnergyForecast(c, now, now + 60.0, 3600.0);
  server_.GetEnergyForecast(c, now, now + 2000.0, 3600.0);  // next bucket
  EXPECT_EQ(server_.Stats().weather_api_calls, 2u);
}

TEST_F(InformationServerTest, DifferentChargersDifferentCalls) {
  SimTime now = 9.0 * kSecondsPerHour;
  server_.GetAvailability(Charger(1), now, now + 600.0);
  server_.GetAvailability(Charger(2), now, now + 600.0);
  EXPECT_EQ(server_.Stats().availability_api_calls, 2u);
}

TEST_F(InformationServerTest, ResponsesArePureFunctionsOfKey) {
  // The response for a key must not depend on cache warm-state: drop the
  // cache by letting the TTL expire and verify the recomputed value
  // matches the original.
  EisOptions opts;
  opts.availability_ttl_s = 1.0;
  InformationServer fresh(&energy_, &availability_, &congestion_, opts);
  EvCharger c = Charger(4);
  SimTime now = 14.0 * kSecondsPerHour;
  AvailabilityForecast first = fresh.GetAvailability(c, now, now + 600.0);
  // Expire (age > 1 s), then re-request at a slightly later time within
  // the same 15-minute bucket.
  AvailabilityForecast second =
      fresh.GetAvailability(c, now + 30.0, now + 630.0);
  EXPECT_EQ(first.min, second.min);
  EXPECT_EQ(first.max, second.max);
  EXPECT_EQ(fresh.Stats().availability_api_calls, 2u);
}

TEST_F(InformationServerTest, TrafficKeyedByRoadClass) {
  SimTime now = 8.0 * kSecondsPerHour;
  auto highway = server_.GetTraffic(RoadClass::kHighway, now, now);
  auto local = server_.GetTraffic(RoadClass::kLocal, now, now);
  EXPECT_EQ(server_.Stats().traffic_api_calls, 2u);
  // Rush hour: highways slower than locals.
  EXPECT_LT(highway.max, local.max + 1e-12);
}

TEST_F(InformationServerTest, ForecastMatchesUnderlyingService) {
  // The EIS must return what the upstream service would (for the snapped
  // bucket time) — caching changes cost, not answers.
  EvCharger c = Charger(9);
  SimTime now = 10.0 * kSecondsPerHour;     // exactly on a bucket boundary
  SimTime target = 10.5 * kSecondsPerHour;  // also on a boundary
  AvailabilityForecast via_eis = server_.GetAvailability(c, now, target);
  AvailabilityForecast direct = availability_.Forecast(c, now, target);
  EXPECT_EQ(via_eis.min, direct.min);
  EXPECT_EQ(via_eis.max, direct.max);
}

TEST_F(InformationServerTest, ChargeWindowIsPartOfTheWeatherKey) {
  // The forecast integrates over the charge window, a per-request wire
  // field: two clients asking with different windows must each get their
  // own upstream answer, not whichever one was cached first.
  EvCharger c = Charger(5);
  SimTime now = 11.0 * kSecondsPerHour;  // on a bucket boundary
  SimTime target = now + 1800.0;         // also on a boundary
  EnergyForecast hour = server_.GetEnergyForecast(c, now, target, 3600.0);
  EnergyForecast half = server_.GetEnergyForecast(c, now, target, 1800.0);
  EXPECT_EQ(server_.Stats().weather_api_calls, 2u);
  EnergyForecast direct_hour =
      energy_.ForecastEnergyKwh(c, now, target, 3600.0);
  EnergyForecast direct_half =
      energy_.ForecastEnergyKwh(c, now, target, 1800.0);
  EXPECT_EQ(hour.min_kwh, direct_hour.min_kwh);
  EXPECT_EQ(hour.max_kwh, direct_hour.max_kwh);
  EXPECT_EQ(half.min_kwh, direct_half.min_kwh);
  EXPECT_EQ(half.max_kwh, direct_half.max_kwh);
  EXPECT_NE(hour.max_kwh, half.max_kwh);
  // Repeats of either window hit their own slot.
  server_.GetEnergyForecast(c, now, target, 1800.0);
  server_.GetEnergyForecast(c, now, target, 3600.0);
  EXPECT_EQ(server_.Stats().weather_api_calls, 2u);
  EXPECT_EQ(server_.Stats().weather_cache.hits, 2u);
}

bool SameBits(const EnergyForecast& a, const EnergyForecast& b) {
  return std::bit_cast<uint64_t>(a.min_kwh) ==
             std::bit_cast<uint64_t>(b.min_kwh) &&
         std::bit_cast<uint64_t>(a.max_kwh) ==
             std::bit_cast<uint64_t>(b.max_kwh);
}

TEST_F(InformationServerTest, BatchWeatherAccountingMatchesPerChargerCalls) {
  // A batch prices one window per target bucket, but weather_api_calls is
  // the modelled upstream load: it, and the column's hit / miss /
  // expiration counts, must equal those of the same lookups made one
  // charger at a time.
  EisOptions opts;
  opts.weather_ttl_s = 60.0;
  InformationServer batched(&energy_, &availability_, &congestion_, opts);
  InformationServer single(&energy_, &availability_, &congestion_, opts);
  std::vector<EvCharger> fleet;
  for (ChargerId id = 0; id < 60; ++id) fleet.push_back(Charger(id));
  const SimTime now = 10.0 * kSecondsPerHour + 30.0;
  // Three rounds in one issue bucket: cold, a repeat (hits), and one past
  // the 60 s TTL (expirations). Chargers repeat inside a round, and the
  // targets span four buckets.
  ForecastBatch batch;
  for (double later : {0.0, 20.0, 200.0}) {
    std::vector<const EvCharger*> chargers;
    std::vector<SimTime> targets;
    for (size_t i = 0; i < 90; ++i) {
      chargers.push_back(&fleet[(i * 7) % fleet.size()]);
      targets.push_back(now + 1200.0 + static_cast<double>(i % 4) * 900.0);
    }
    batched.GetForecastBatch(chargers, targets, now + later, 3600.0, &batch);
    for (size_t i = 0; i < chargers.size(); ++i) {
      EnergyForecast one = single.GetEnergyForecast(
          *chargers[i], now + later, targets[i], 3600.0);
      EXPECT_TRUE(SameBits(batch.energy[i], one)) << "candidate " << i;
    }
    const EisCallStats a = batched.Stats();
    const EisCallStats b = single.Stats();
    EXPECT_EQ(a.weather_api_calls, b.weather_api_calls);
    EXPECT_EQ(a.weather_cache.hits, b.weather_cache.hits);
    EXPECT_EQ(a.weather_cache.misses, b.weather_cache.misses);
    EXPECT_EQ(a.weather_cache.expirations, b.weather_cache.expirations);
  }
  const EisCallStats stats = batched.Stats();
  EXPECT_EQ(stats.weather_api_calls, stats.weather_cache.misses);
  EXPECT_GT(stats.weather_cache.hits, 0u);
  EXPECT_GT(stats.weather_cache.expirations, 0u);
}

TEST_F(InformationServerTest, LaterIssueBucketPricesItsOwnWindows) {
  // The window memo lives in the caller's scratch but is scoped to one
  // call: a batch issued an hour later, for the same target buckets and
  // through the same scratch, must price its own forecast band.
  std::vector<EvCharger> fleet;
  for (ChargerId id = 0; id < 16; ++id) {
    fleet.push_back(Charger(id));
    fleet.back().type = ChargerType::kDc150;  // no rate cap on the band
    fleet.back().pv_capacity_kw = 8.0 + static_cast<double>(id);
  }
  std::vector<const EvCharger*> chargers;
  std::vector<SimTime> targets;
  for (size_t i = 0; i < fleet.size(); ++i) {
    chargers.push_back(&fleet[i]);
    targets.push_back(12.0 * kSecondsPerHour +
                      static_cast<double>(i % 3) * 900.0);
  }
  ForecastBatch batch;
  const SimTime first = 9.0 * kSecondsPerHour;  // on bucket boundaries
  const SimTime second = 10.0 * kSecondsPerHour;
  server_.GetForecastBatch(chargers, targets, first, 3600.0, &batch);
  const std::vector<EnergyForecast> earlier = batch.energy;
  server_.GetForecastBatch(chargers, targets, second, 3600.0, &batch);
  size_t moved = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    EnergyForecast direct =
        energy_.ForecastEnergyKwh(fleet[i], second, targets[i], 3600.0);
    EXPECT_TRUE(SameBits(batch.energy[i], direct)) << "candidate " << i;
    if (!SameBits(earlier[i], direct)) ++moved;
  }
  // The two issue times forecast different bands, so reuse would show.
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(server_.Stats().weather_api_calls, 2 * fleet.size());
}

}  // namespace
}  // namespace ecocharge
