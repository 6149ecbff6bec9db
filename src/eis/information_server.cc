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

uint64_t InformationServer::MixKey(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ (b + 0xC2B2AE3D27D4EB4FULL);
  return (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ULL + c * 0x94D049BB133111EBULL;
}

namespace {

// Re-keys `key` under revision `rev` of its upstream data set. rev + 1
// keeps revision 0 distinct from the no-op fold of a missing scope only
// through the branch below — when no scope is installed the key passes
// through untouched, preserving the pre-fleet key space bit for bit.
uint64_t FoldRevision(uint64_t key, uint64_t rev) {
  uint64_t h = key ^ (rev + 1) * 0xD6E8FEB86659FD93ULL;
  h ^= h >> 32;
  return h * 0x2545F4914F6CDD1DULL;
}

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

uint64_t InformationServer::TrafficKey(RoadClass road_class, SimTime now,
                                       SimTime target) {
  uint64_t key = MixKey(static_cast<uint64_t>(road_class) + 1,
                        TimeBucket(target), TimeBucket(now));
  if (const WorldRevisions* revs = ScopedWorldRevisions::Current()) {
    key = FoldRevision(key, revs->traffic);
  }
  return key;
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
      traffic_cache_(options.traffic_ttl_s, kStoreCapacity,
                     options.cache_shards) {}

void InformationServer::ResolveWeather(
    std::span<const EvCharger* const> chargers,
    std::span<const SimTime> targets, SimTime now, double window_s,
    EnergyForecast* out, EisFetch* fetch) {
  Resolve(&weather_columns_, WeatherColumn(now, window_s), chargers, targets,
          now,
          [&](const EvCharger& c, SimTime snapped_now,
              SimTime snapped_target) -> Result<EnergyForecast> {
            CountWeatherCall();
            return energy_->ForecastEnergyKwh(c, snapped_now, snapped_target,
                                              window_s);
          },
          NeverDegrades<EnergyForecast>, out, fetch);
}

void InformationServer::ResolveAvailability(
    std::span<const EvCharger* const> chargers,
    std::span<const SimTime> targets, SimTime now, AvailabilityForecast* out,
    EisFetch* fetch) {
  Resolve(&availability_columns_, AvailabilityColumn(now), chargers, targets,
          now,
          [&](const EvCharger& c, SimTime snapped_now,
              SimTime snapped_target) -> Result<AvailabilityForecast> {
            CountAvailabilityCall();
            return availability_->Forecast(c, snapped_now, snapped_target);
          },
          NeverDegrades<AvailabilityForecast>, out, fetch);
}

EnergyForecast InformationServer::GetEnergyForecast(const EvCharger& charger,
                                                    SimTime now,
                                                    SimTime target,
                                                    double window_s,
                                                    EisFetch* fetch) {
  const EvCharger* one[1] = {&charger};
  EnergyForecast f;
  EisFetch rung = EisFetch::kFresh;
  ResolveWeather(one, {&target, 1}, now, window_s, &f, &rung);
  if (fetch) *fetch = rung;
  return f;
}

AvailabilityForecast InformationServer::GetAvailability(
    const EvCharger& charger, SimTime now, SimTime target, EisFetch* fetch) {
  const EvCharger* one[1] = {&charger};
  AvailabilityForecast f;
  EisFetch rung = EisFetch::kFresh;
  ResolveAvailability(one, {&target, 1}, now, &f, &rung);
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
  ResolveWeather(chargers, targets, now, window_s, out->energy.data(),
                 out->fetch.data());
  ResolveAvailability(chargers, targets, now, out->availability.data(),
                      out->fetch.data());
}

CongestionModel::Band InformationServer::GetTraffic(RoadClass road_class,
                                                    SimTime now,
                                                    SimTime target,
                                                    EisFetch* fetch) {
  if (fetch) *fetch = EisFetch::kFresh;
  uint64_t key = TrafficKey(road_class, now, target);
  if (auto cached = traffic_cache_.Get(key, now)) return *cached;
  CountTrafficCall();
  CongestionModel::Band band = congestion_->ForecastSpeedFactor(
      road_class, SnapToBucket(now), SnapToBucket(target));
  traffic_cache_.Put(key, band, now);
  return band;
}

void InformationServer::AttachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    weather_calls_mirror_ = nullptr;
    availability_calls_mirror_ = nullptr;
    traffic_calls_mirror_ = nullptr;
    weather_columns_.AttachCounters(nullptr, nullptr, nullptr);
    availability_columns_.AttachCounters(nullptr, nullptr, nullptr);
    traffic_cache_.AttachCounters(nullptr, nullptr, nullptr);
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
  wire("traffic", traffic_cache_, &traffic_calls_mirror_);
}

EisCallStats InformationServer::Snapshot() const {
  EisCallStats stats;
  stats.weather_api_calls = weather_calls_.load(std::memory_order_relaxed);
  stats.availability_api_calls =
      availability_calls_.load(std::memory_order_relaxed);
  stats.traffic_api_calls = traffic_calls_.load(std::memory_order_relaxed);
  stats.weather_cache = weather_columns_.stats();
  stats.availability_cache = availability_columns_.stats();
  stats.traffic_cache = traffic_cache_.stats();
  return stats;
}

}  // namespace ecocharge
