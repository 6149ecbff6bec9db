// Weather-window pricing gate: a cold InformationServer::GetForecastBatch,
// which prices one SolarWindow per distinct target bucket, against the same
// column-store resolve priced per charger (the band loop every weather miss
// ran before chargers shared a window).
//
// The binary asserts the windowed path's contract and exits 1 when it
// breaks:
//   1. the energy forecasts of both sides are bit-identical, and so are
//      their upstream call counts and weather hit / miss counts;
//   2. the windowed batch is >= 2x faster.
// Each timed rep is one cold batch over 1000 chargers in a few target
// buckets on a fresh server per side (built outside the timed region);
// timing uses interleaved min-of-rounds (see bench_micro_obs.cc for why).
// Results are emitted as BENCH_eis.json.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "eis/information_server.h"

namespace ecocharge {
namespace {

constexpr double kMinWindowSpeedup = 2.0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// ForecastEnergyKwh as it ran before the SolarWindow split: the band and
/// every slot's clear-sky irradiance priced for this one charger.
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
    out.min_kwh += clear_kw * band.transmission_min * dt / kSecondsPerHour;
    out.max_kwh += clear_kw * band.transmission_max * dt / kSecondsPerHour;
  }
  double cap_kwh = charger.RateKw() * window_s / kSecondsPerHour;
  out.min_kwh = std::min(out.min_kwh, cap_kwh);
  out.max_kwh = std::min(out.max_kwh, cap_kwh);
  return out;
}

/// The base server with its weather misses priced per charger: the same
/// column store, claims, locks and call counting, one window per miss.
class PerChargerWeatherServer : public InformationServer {
 public:
  using InformationServer::InformationServer;

 protected:
  void ResolveWeather(std::span<const EvCharger* const> chargers,
                      std::span<const SimTime> targets, SimTime now,
                      double window_s, EnergyForecast* out, EisFetch* fetch,
                      std::span<SlotClaim> claims,
                      std::vector<SolarWindow>* /*windows*/) override {
    Resolve(
        &weather_columns_, WeatherColumn(now, window_s), chargers, targets,
        now,
        [&](const EvCharger& c, SimTime snapped_now,
            SimTime snapped_target) -> Result<EnergyForecast> {
          CountWeatherCall();
          return PerChargerForecast(*energy_, c, snapped_now, snapped_target,
                                    window_s);
        },
        [](const EvCharger&, const EnergyForecast* stale, EisFetch*) {
          return stale ? *stale : EnergyForecast{};
        },
        out, fetch, claims);
  }
};

bool SameBits(const EnergyForecast& a, const EnergyForecast& b) {
  return std::bit_cast<uint64_t>(a.min_kwh) ==
             std::bit_cast<uint64_t>(b.min_kwh) &&
         std::bit_cast<uint64_t>(a.max_kwh) ==
             std::bit_cast<uint64_t>(b.max_kwh);
}

int Main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::FromArgs(argc, argv);
  SolarEnergyService energy(SolarModel{}, ClimateParams{}, cfg.seed);
  AvailabilityService availability(cfg.seed + 1);
  CongestionModel congestion(cfg.seed + 2);

  // 1000 chargers arriving over four target buckets, as a fresh request's
  // candidates do, issued mid-morning for a 1 h charge.
  const size_t kChargers = 1000;
  const size_t kBuckets = 4;
  const double kWindowS = kSecondsPerHour;
  const SimTime now = 9.0 * kSecondsPerHour + 300.0;
  const ChargerType types[] = {ChargerType::kAc11, ChargerType::kAc22,
                               ChargerType::kDc50, ChargerType::kDc150};
  std::vector<EvCharger> fleet(kChargers);
  std::vector<const EvCharger*> chargers;
  std::vector<SimTime> targets;
  for (size_t i = 0; i < kChargers; ++i) {
    fleet[i].id = static_cast<ChargerId>(i);
    fleet[i].type = types[i % 4];
    fleet[i].pv_capacity_kw = 10.0 + static_cast<double>(i % 71);
    chargers.push_back(&fleet[i]);
    targets.push_back(now + 600.0 + static_cast<double>(i % kBuckets) * 900.0 +
                      static_cast<double>((i * 13) % 300));
  }

  auto make = [&](bool windowed) -> std::unique_ptr<InformationServer> {
    if (windowed) {
      return std::make_unique<InformationServer>(&energy, &availability,
                                                 &congestion);
    }
    return std::make_unique<PerChargerWeatherServer>(&energy, &availability,
                                                     &congestion);
  };

  // Parity first: the same cold batch on both sides.
  bool ok = true;
  ForecastBatch windowed_out;
  ForecastBatch reference_out;
  {
    auto windowed = make(true);
    auto reference = make(false);
    windowed->GetForecastBatch(chargers, targets, now, kWindowS,
                               &windowed_out);
    reference->GetForecastBatch(chargers, targets, now, kWindowS,
                                &reference_out);
    for (size_t i = 0; i < kChargers; ++i) {
      if (!SameBits(windowed_out.energy[i], reference_out.energy[i])) {
        std::cerr << "FAIL: energy forecast mismatch at candidate " << i
                  << "\n";
        ok = false;
      }
    }
    const EisCallStats a = windowed->Snapshot();
    const EisCallStats b = reference->Snapshot();
    if (a.weather_api_calls != b.weather_api_calls ||
        a.weather_cache.hits != b.weather_cache.hits ||
        a.weather_cache.misses != b.weather_cache.misses) {
      std::cerr << "FAIL: weather accounting differs: calls "
                << a.weather_api_calls << " vs " << b.weather_api_calls
                << ", misses " << a.weather_cache.misses << " vs "
                << b.weather_cache.misses << "\n";
      ok = false;
    }
  }

  const int kRounds = cfg.repetitions > 1 ? 15 : 9;
  uint64_t reference_ns = UINT64_MAX;
  uint64_t windowed_ns = UINT64_MAX;
  for (int round = 0; round < kRounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      const bool windowed = (round + side) % 2 == 1;
      ForecastBatch& out = windowed ? windowed_out : reference_out;
      auto server = make(windowed);
      const uint64_t start = NowNs();
      server->GetForecastBatch(chargers, targets, now, kWindowS, &out);
      const uint64_t elapsed = NowNs() - start;
      uint64_t& best = windowed ? windowed_ns : reference_ns;
      best = std::min(best, elapsed);
    }
  }

  const double speedup =
      static_cast<double>(reference_ns) /
      static_cast<double>(std::max<uint64_t>(windowed_ns, 1));
  std::cout << "bench_micro_eis: cold GetForecastBatch, " << kChargers
            << " chargers in " << kBuckets << " target buckets, "
            << kWindowS << " s window, min of " << kRounds
            << " interleaved rounds\n"
            << "per-charger pricing "
            << TableWriter::Fmt(reference_ns / 1e3, 1)
            << " us/batch, one window per bucket "
            << TableWriter::Fmt(windowed_ns / 1e3, 1) << " us/batch ("
            << TableWriter::Fmt(speedup, 2) << "x)\n";

  bench::BenchJsonWriter json;
  json.BeginRecord();
  json.Str("mode", "window_per_bucket_vs_per_charger");
  json.Num("chargers", static_cast<double>(kChargers));
  json.Num("target_buckets", static_cast<double>(kBuckets));
  json.Num("window_s", kWindowS);
  json.Num("per_charger_ns", static_cast<double>(reference_ns));
  json.Num("windowed_ns", static_cast<double>(windowed_ns));
  json.Num("speedup", speedup);
  if (speedup < kMinWindowSpeedup) {
    std::cerr << "FAIL: window-per-bucket pricing only " << speedup
              << "x faster than per-charger pricing (floor "
              << kMinWindowSpeedup << "x)\n";
    ok = false;
  }
  if (!json.WriteFile("BENCH_eis.json")) {
    std::cerr << "failed to write BENCH_eis.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_eis.json (" << json.num_records()
            << " records)\n";
  if (!ok) return 1;
  std::cout << "PASS: window-per-bucket forecasts bit-identical with equal "
            << "accounting and >= " << kMinWindowSpeedup << "x\n";
  return 0;
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
