#include "resilience/resilient_information_server.h"

#include <algorithm>

namespace ecocharge {
namespace resilience {

namespace {

/// Derives a per-upstream jitter stream from the retry seed (SplitMix64
/// finalizer), offset so it never collides with the fault-schedule
/// streams derived from the same master seed value.
uint64_t MixRetrySeed(uint64_t seed, uint64_t kind) {
  uint64_t z = seed + (kind + 17) * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Climatological defaults: the bottom rung of the degradation ladder.
/// Each default *widens* the interval to bounds that hold for any
/// weather/occupancy/traffic, so an EC estimate built from them still
/// contains the truth — the ranking loses sharpness, not correctness.

EnergyForecast ClimatologicalEnergy(const EvCharger& charger,
                                    double window_s) {
  // Zero clean energy up to the site's physical ceiling: delivery capped
  // by the charger rate and by the attached PV capacity at the clear-sky
  // peak over the window. The peak (the sun at the zenith) exceeds a
  // nominal kWp's 1000 W/m^2 at low latitudes, so the capacity alone is
  // no ceiling there; the 1e-9 margin covers the rounding of a forecast's
  // per-slot sum.
  EnergyForecast f;
  f.min_kwh = 0.0;
  f.max_kwh = std::min(charger.RateKw(),
                       charger.pv_capacity_kw *
                           (kPeakClearSkyIrradiance / 1000.0) * (1.0 + 1e-9)) *
              window_s / kSecondsPerHour;
  return f;
}

AvailabilityForecast ClimatologicalAvailability() {
  return AvailabilityForecast{0.0, 1.0};  // anything from full to empty
}

CongestionModel::Band ClimatologicalTraffic() {
  return CongestionModel::Band{};  // the model's full {0.15, 1.0} range
}

}  // namespace

ResilientInformationServer::ResilientInformationServer(
    SolarEnergyService* energy, const AvailabilityService* availability,
    const CongestionModel* congestion, const EisOptions& eis_options,
    const ResilienceOptions& options)
    : InformationServer(energy, availability, congestion, eis_options),
      options_(options),
      retry_policy_(options.retry),
      direct_(std::make_unique<DirectEisSource>(energy, availability,
                                                congestion)),
      injector_(std::make_unique<FaultInjector>(direct_.get(),
                                                options.faults)),
      source_(injector_.get()) {
  InitUpstreams();
}

ResilientInformationServer::ResilientInformationServer(
    EisSource* source, SolarEnergyService* energy,
    const AvailabilityService* availability, const CongestionModel* congestion,
    const EisOptions& eis_options, const ResilienceOptions& options)
    : InformationServer(energy, availability, congestion, eis_options),
      options_(options),
      retry_policy_(options.retry),
      source_(source) {
  InitUpstreams();
}

void ResilientInformationServer::InitUpstreams() {
  for (UpstreamKind kind : kAllUpstreamKinds) {
    UpstreamState& st = StateFor(kind);
    st.breaker = std::make_unique<CircuitBreaker>(options_.breaker);
    st.rng = Rng(MixRetrySeed(options_.retry_seed,
                              static_cast<uint64_t>(kind)));
  }
}

void ResilientInformationServer::CountStaleServe(UpstreamKind kind) {
  UpstreamState& st = StateFor(kind);
  st.stale_serves.fetch_add(1, std::memory_order_relaxed);
  if (st.stale_mirror) st.stale_mirror->Add();
}

void ResilientInformationServer::CountClimatologicalServe(UpstreamKind kind) {
  UpstreamState& st = StateFor(kind);
  st.climatological_serves.fetch_add(1, std::memory_order_relaxed);
  if (st.climatological_mirror) st.climatological_mirror->Add();
}

void ResilientInformationServer::ResolveWeather(
    std::span<const EvCharger* const> chargers,
    std::span<const SimTime> targets, SimTime now, double window_s,
    EnergyForecast* out, EisFetch* fetch, std::span<SlotClaim> claims,
    std::vector<SolarWindow>* /*windows*/) {
  // Faults are per upstream call, so every charger fetches on its own.
  Resolve(
      &weather_columns_, WeatherColumn(now, window_s), chargers, targets, now,
      [&](const EvCharger& c, SimTime snapped_now, SimTime snapped_target) {
        return FetchWithResilience<EnergyForecast>(
            UpstreamKind::kWeather, now, [&]() -> Result<EnergyForecast> {
              CountWeatherCall();
              return source_->FetchEnergyForecast(c, snapped_now,
                                                  snapped_target, window_s);
            });
      },
      [&](const EvCharger& c, const EnergyForecast* stale, EisFetch* rung) {
        return Degrade(UpstreamKind::kWeather, stale,
                       ClimatologicalEnergy(c, window_s), rung);
      },
      out, fetch, claims);
}

void ResilientInformationServer::GetEnergyCeilingBatch(
    std::span<const SimTime> targets, SimTime /*now*/, double window_s,
    ForecastBatch* out) {
  out->kwh_per_kwp.assign(targets.size(), (kPeakClearSkyIrradiance / 1000.0) *
                                              (1.0 + 2e-9) * window_s /
                                              kSecondsPerHour);
}

void ResilientInformationServer::ResolveAvailability(
    std::span<const EvCharger* const> chargers,
    std::span<const SimTime> targets, SimTime now, AvailabilityForecast* out,
    EisFetch* fetch, std::span<SlotClaim> claims) {
  Resolve(
      &availability_columns_, AvailabilityColumn(now), chargers, targets, now,
      [&](const EvCharger& c, SimTime snapped_now, SimTime snapped_target) {
        return FetchWithResilience<AvailabilityForecast>(
            UpstreamKind::kAvailability, now,
            [&]() -> Result<AvailabilityForecast> {
              CountAvailabilityCall();
              return source_->FetchAvailability(c, snapped_now,
                                                snapped_target);
            });
      },
      [&](const EvCharger&, const AvailabilityForecast* stale,
          EisFetch* rung) {
        return Degrade(UpstreamKind::kAvailability, stale,
                       ClimatologicalAvailability(), rung);
      },
      out, fetch, claims);
}

void ResilientInformationServer::ResolveTraffic(RoadClass road_class,
                                                SimTime now, SimTime target,
                                                CongestionModel::Band* out,
                                                EisFetch* fetch) {
  SlotClaim claim[1];
  traffic_columns_.Resolve(
      TrafficColumn(now), now, claim, out,
      [&](size_t) { return TrafficSlot(road_class, target); },
      [&](size_t, uint64_t bucket) {
        return FetchWithResilience<CongestionModel::Band>(
            UpstreamKind::kTraffic, now,
            [&]() -> Result<CongestionModel::Band> {
              CountTrafficCall();
              return source_->FetchTraffic(
                  road_class, SnapToBucket(now),
                  static_cast<double>(bucket) * kBucketSeconds);
            });
      },
      [&](size_t, const CongestionModel::Band* stale) {
        return Degrade(UpstreamKind::kTraffic, stale, ClimatologicalTraffic(),
                       fetch);
      });
}

void ResilientInformationServer::AttachMetrics(obs::MetricsRegistry* registry) {
  InformationServer::AttachMetrics(registry);
  if (injector_) injector_->AttachMetrics(registry);
  for (UpstreamKind kind : kAllUpstreamKinds) {
    UpstreamState& st = StateFor(kind);
    if (!registry) {
      st.retries_mirror = nullptr;
      st.backoff_ms_mirror = nullptr;
      st.stale_mirror = nullptr;
      st.climatological_mirror = nullptr;
      st.rejected_mirror = nullptr;
      st.breaker->AttachMetrics(nullptr, nullptr);
      continue;
    }
    std::string prefix = "resilience." + std::string(UpstreamKindName(kind));
    st.retries_mirror = registry->GetCounter(prefix + ".retries", "retries");
    st.backoff_ms_mirror = registry->GetCounter(prefix + ".backoff_ms", "ms");
    st.stale_mirror =
        registry->GetCounter(prefix + ".stale_serves", "responses");
    st.climatological_mirror =
        registry->GetCounter(prefix + ".climatological_serves", "responses");
    st.rejected_mirror =
        registry->GetCounter(prefix + ".breaker_rejected", "requests");
    st.breaker->AttachMetrics(
        registry->GetGauge(prefix + ".breaker_state", "state"),
        registry->GetCounter(prefix + ".breaker_opens", "transitions"));
  }
}

UpstreamResilienceStats ResilientInformationServer::ResilienceSnapshot(
    UpstreamKind kind, SimTime now) const {
  const UpstreamState& st = upstreams_[static_cast<size_t>(kind)];
  UpstreamResilienceStats s;
  s.retries = st.retries.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(st.mu);
    s.backoff_ms = st.backoff_ms;
  }
  s.stale_serves = st.stale_serves.load(std::memory_order_relaxed);
  s.climatological_serves =
      st.climatological_serves.load(std::memory_order_relaxed);
  s.breaker_rejections =
      st.breaker_rejections.load(std::memory_order_relaxed);
  s.breaker_opens = st.breaker->opens();
  s.breaker_state = st.breaker->state(now);
  return s;
}

}  // namespace resilience
}  // namespace ecocharge
