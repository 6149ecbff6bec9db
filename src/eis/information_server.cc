#include "eis/information_server.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace ecocharge {

uint64_t InformationServer::TimeBucket(SimTime t) {
  return static_cast<uint64_t>(std::max(0.0, t) / kBucketSeconds);
}

SimTime InformationServer::SnapToBucket(SimTime t) {
  return static_cast<double>(TimeBucket(t)) * kBucketSeconds;
}

namespace {

// The revision component of a column key: 0 when no scope is installed,
// so stand-alone callers keep the classic key space.
uint64_t ColumnRevision(uint64_t WorldRevisions::*source) {
  const WorldRevisions* revs = ScopedWorldRevisions::Current();
  return revs ? revs->*source + 1 : 0;
}

}  // namespace

ColumnKey InformationServer::WeatherColumn(SimTime now, double window_s) {
  ColumnKey key;
  key.issue_bucket = TimeBucket(now);
  key.revision = ColumnRevision(&WorldRevisions::weather);
  key.window_bits = std::bit_cast<uint64_t>(window_s);
  return key;
}

ColumnKey InformationServer::AvailabilityColumn(SimTime now) {
  ColumnKey key;
  key.issue_bucket = TimeBucket(now);
  key.revision = ColumnRevision(&WorldRevisions::availability);
  return key;
}

ColumnKey InformationServer::TrafficColumn(SimTime now) {
  ColumnKey key;
  key.issue_bucket = TimeBucket(now);
  key.revision = ColumnRevision(&WorldRevisions::traffic);
  return key;
}

SlotKey InformationServer::TrafficSlot(RoadClass road_class, SimTime target) {
  return SlotKey{TimeBucket(target), static_cast<ChargerId>(road_class)};
}

void InformationServer::CountWeatherCall() {
  weather_calls_.fetch_add(1, std::memory_order_relaxed);
  if (weather_calls_mirror_) weather_calls_mirror_->Add();
}

void InformationServer::CountAvailabilityCall() {
  availability_calls_.fetch_add(1, std::memory_order_relaxed);
  if (availability_calls_mirror_) availability_calls_mirror_->Add();
}

void InformationServer::CountTrafficCall() {
  traffic_calls_.fetch_add(1, std::memory_order_relaxed);
  if (traffic_calls_mirror_) traffic_calls_mirror_->Add();
}

namespace {

// The plain server's ladder never leaves the top rung: its upstream
// cannot fail, so Resolve never calls this.
template <typename Value>
Value NeverDegrades(const EvCharger&, const Value* stale, EisFetch*) {
  return stale ? *stale : Value{};
}

}  // namespace

InformationServer::InformationServer(SolarEnergyService* energy,
                                     const AvailabilityService* availability,
                                     const CongestionModel* congestion,
                                     const EisOptions& options)
    : energy_(energy),
      availability_(availability),
      congestion_(congestion),
      weather_columns_(options.weather_ttl_s, kStoreCapacity),
      availability_columns_(options.availability_ttl_s, kStoreCapacity),
      traffic_columns_(options.traffic_ttl_s, kStoreCapacity) {}

void InformationServer::ResolveWeather(
    std::span<const EvCharger* const> chargers,
    std::span<const SimTime> targets, SimTime now, double window_s,
    EnergyForecast* out, EisFetch* fetch, std::span<SlotClaim> claims,
    std::vector<SolarWindow>* windows) {
  // The windows this call priced, keyed by snapped target: now and
  // window_s are fixed for the call, so the memo never outlives its issue
  // bucket, window or world revision. Entries past `priced` are storage
  // left by earlier calls, rebuilt in place.
  size_t priced = 0;
  auto window_for = [&](SimTime snapped_now,
                        SimTime snapped_target) -> const SolarWindow& {
    for (size_t w = 0; w < priced; ++w) {
      if ((*windows)[w].target() == snapped_target) return (*windows)[w];
    }
    if (priced == windows->size()) windows->emplace_back();
    SolarWindow& window = (*windows)[priced++];
    energy_->BuildWindow(snapped_now, snapped_target, window_s, &window);
    return window;
  };
  Resolve(&weather_columns_, WeatherColumn(now, window_s), chargers, targets,
          now,
          [&](const EvCharger& c, SimTime snapped_now,
              SimTime snapped_target) -> Result<EnergyForecast> {
            CountWeatherCall();
            return window_for(snapped_now, snapped_target).Energy(c);
          },
          NeverDegrades<EnergyForecast>, out, fetch, claims);
}

void InformationServer::ResolveAvailability(
    std::span<const EvCharger* const> chargers,
    std::span<const SimTime> targets, SimTime now, AvailabilityForecast* out,
    EisFetch* fetch, std::span<SlotClaim> claims) {
  Resolve(&availability_columns_, AvailabilityColumn(now), chargers, targets,
          now,
          [&](const EvCharger& c, SimTime snapped_now,
              SimTime snapped_target) -> Result<AvailabilityForecast> {
            CountAvailabilityCall();
            return availability_->Forecast(c, snapped_now, snapped_target);
          },
          NeverDegrades<AvailabilityForecast>, out, fetch, claims);
}

EnergyForecast InformationServer::GetEnergyForecast(const EvCharger& charger,
                                                    SimTime now,
                                                    SimTime target,
                                                    double window_s,
                                                    EisFetch* fetch) {
  const EvCharger* one[1] = {&charger};
  EnergyForecast f;
  EisFetch rung = EisFetch::kFresh;
  SlotClaim claim[1];
  std::vector<SolarWindow> window;
  ResolveWeather(one, {&target, 1}, now, window_s, &f, &rung, claim, &window);
  if (fetch) *fetch = rung;
  return f;
}

AvailabilityForecast InformationServer::GetAvailability(
    const EvCharger& charger, SimTime now, SimTime target, EisFetch* fetch) {
  const EvCharger* one[1] = {&charger};
  AvailabilityForecast f;
  EisFetch rung = EisFetch::kFresh;
  SlotClaim claim[1];
  ResolveAvailability(one, {&target, 1}, now, &f, &rung, claim);
  if (fetch) *fetch = rung;
  return f;
}

void InformationServer::GetForecastBatch(
    std::span<const EvCharger* const> chargers,
    std::span<const SimTime> targets, SimTime now, double window_s,
    ForecastBatch* out) {
  const size_t n = chargers.size();
  out->energy.resize(n);
  out->availability.resize(n);
  out->fetch.assign(n, EisFetch::kFresh);
  out->claims.resize(n);
  ResolveWeather(chargers, targets, now, window_s, out->energy.data(),
                 out->fetch.data(), out->claims, &out->windows);
  ResolveAvailability(chargers, targets, now, out->availability.data(),
                      out->fetch.data(), out->claims);
}

void InformationServer::ResolveTraffic(RoadClass road_class, SimTime now,
                                       SimTime target,
                                       CongestionModel::Band* out,
                                       EisFetch* /*fetch*/) {
  SlotClaim claim[1];
  traffic_columns_.Resolve(
      TrafficColumn(now), now, claim, out,
      [&](size_t) { return TrafficSlot(road_class, target); },
      [&](size_t, uint64_t bucket) -> Result<CongestionModel::Band> {
        CountTrafficCall();
        return congestion_->ForecastSpeedFactor(
            road_class, SnapToBucket(now),
            static_cast<double>(bucket) * kBucketSeconds);
      },
      [](size_t, const CongestionModel::Band* stale) {
        return stale ? *stale : CongestionModel::Band{};
      });
}

CongestionModel::Band InformationServer::GetTraffic(RoadClass road_class,
                                                    SimTime now,
                                                    SimTime target,
                                                    EisFetch* fetch) {
  CongestionModel::Band band;
  EisFetch rung = EisFetch::kFresh;
  ResolveTraffic(road_class, now, target, &band, &rung);
  if (fetch) *fetch = rung;
  return band;
}

void InformationServer::AttachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    weather_calls_mirror_ = nullptr;
    availability_calls_mirror_ = nullptr;
    traffic_calls_mirror_ = nullptr;
    weather_columns_.AttachCounters(nullptr, nullptr, nullptr);
    availability_columns_.AttachCounters(nullptr, nullptr, nullptr);
    traffic_columns_.AttachCounters(nullptr, nullptr, nullptr);
    return;
  }
  auto wire = [registry](const std::string& source, auto& cache,
                         obs::Counter** calls) {
    *calls = registry->GetCounter("eis." + source + ".calls", "calls");
    cache.AttachCounters(
        registry->GetCounter("eis." + source + ".cache.hits", "lookups"),
        registry->GetCounter("eis." + source + ".cache.misses", "lookups"),
        registry->GetCounter("eis." + source + ".cache.expirations",
                             "entries"));
  };
  wire("weather", weather_columns_, &weather_calls_mirror_);
  wire("availability", availability_columns_, &availability_calls_mirror_);
  wire("traffic", traffic_columns_, &traffic_calls_mirror_);
}

EisCallStats InformationServer::Snapshot() const {
  EisCallStats stats;
  stats.weather_api_calls = weather_calls_.load(std::memory_order_relaxed);
  stats.availability_api_calls =
      availability_calls_.load(std::memory_order_relaxed);
  stats.traffic_api_calls = traffic_calls_.load(std::memory_order_relaxed);
  stats.weather_cache = weather_columns_.stats();
  stats.availability_cache = availability_columns_.stats();
  stats.traffic_cache = traffic_columns_.stats();
  return stats;
}

}  // namespace ecocharge
