#ifndef ECOCHARGE_EIS_INFORMATION_SERVER_H_
#define ECOCHARGE_EIS_INFORMATION_SERVER_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "availability/availability_service.h"
#include "common/result.h"
#include "eis/cache_stats.h"
#include "eis/forecast_columns.h"
#include "eis/world_revisions.h"
#include "energy/production.h"
#include "traffic/congestion.h"

namespace ecocharge {

/// \brief TTLs for the three upstream "APIs" (weather, busy timetables,
/// traffic), mirroring how often the real services refresh.
struct EisOptions {
  double weather_ttl_s = 30.0 * kSecondsPerMinute;
  double availability_ttl_s = 15.0 * kSecondsPerMinute;
  double traffic_ttl_s = 5.0 * kSecondsPerMinute;

  /// Unused; perfbench still sets it.
  size_t cache_shards = 1;
};

/// \brief How a Get* response was produced — the rungs of the resilience
/// degradation ladder (DESIGN.md §11). The plain InformationServer always
/// reports kFresh; the ResilientInformationServer walks down the ladder
/// when upstreams fail.
enum class EisFetch : uint8_t {
  kFresh = 0,  ///< fresh cache hit or successful upstream fetch
  kStale = 1,  ///< upstream failed; cache entry served past its TTL
  kClimatological = 2,  ///< no cache entry; conservative widened default
};

/// \brief Aggregate upstream-call accounting (a plain value snapshot).
struct EisCallStats {
  uint64_t weather_api_calls = 0;
  uint64_t availability_api_calls = 0;
  uint64_t traffic_api_calls = 0;
  CacheStats weather_cache;
  CacheStats availability_cache;
  CacheStats traffic_cache;
};

/// \brief Output lanes of one InformationServer::GetForecastBatch call:
/// caller-owned scratch that grows to the largest batch and stays.
struct ForecastBatch {
  std::vector<EnergyForecast> energy;
  std::vector<AvailabilityForecast> availability;
  /// Worst rung of the two sources per candidate (kFresh < kStale <
  /// kClimatological).
  std::vector<EisFetch> fetch;
  /// Claim scratch of the column stores, one entry per candidate.
  std::vector<SlotClaim> claims;
  /// Weather windows of one call, one per distinct target bucket missed.
  std::vector<SolarWindow> windows;
};

/// \brief The EcoCharge Information Server (EIS).
///
/// Consolidates the external data sources behind per-source caches so
/// clients (vehicles) never trigger redundant upstream requests — the
/// server half of the paper's architecture (Fig. 4). The underlying
/// simulated services are the ground-truth/forecast models; the EIS only
/// adds caching and accounting, exactly like the Laravel/Nginx deployment
/// it stands in for.
///
/// All three responses live in ForecastColumns stores (DESIGN.md §18):
/// weather (L) and availability (A) columns are indexed by charger id, so
/// a fresh request resolves all its candidates with one GetForecastBatch
/// call and the single-charger Get* calls are one-element uses of the
/// same store; traffic (D) columns are indexed by road class.
///
/// Thread safety: one InformationServer may be shared by all serving
/// workers. Each column store is guarded by one mutex that is never held
/// across an upstream call: a call claims its missing slots, fetches
/// them unlocked and publishes them, and a concurrent call wanting a
/// claimed slot waits for that publish, so no upstream call is ever
/// duplicated (ForecastColumns); call counters are relaxed atomics; and
/// the upstream services are either
/// const and pure in their inputs (AvailabilityService, CongestionModel)
/// or internally synchronized (SolarEnergyService via WeatherProcess).
/// Every response is a pure function of its key, so the caches change
/// cost, never answers.
class InformationServer {
 public:
  InformationServer(SolarEnergyService* energy,
                    const AvailabilityService* availability,
                    const CongestionModel* congestion,
                    const EisOptions& options = {});
  virtual ~InformationServer() = default;

  /// The Get* methods and GetForecastBatch are virtual decoration seams
  /// (a tracing subclass can time them). The resilience layer decorates
  /// underneath them: ResilientInformationServer overrides only the three
  /// per-source Resolve* steps the Get* calls and GetForecastBatch go
  /// through, with a fetch path that can fail, retry, trip breakers, and
  /// degrade. When `fetch` is non-null it reports which
  /// rung of the degradation ladder produced the response — this base
  /// implementation cannot degrade and always reports kFresh.

  /// L source: forecast clean-energy band for a charger's arrival window.
  virtual EnergyForecast GetEnergyForecast(const EvCharger& charger,
                                           SimTime now, SimTime target,
                                           double window_s,
                                           EisFetch* fetch = nullptr);

  /// A source: availability band at the ETA.
  virtual AvailabilityForecast GetAvailability(const EvCharger& charger,
                                               SimTime now, SimTime target,
                                               EisFetch* fetch = nullptr);

  /// D source: congestion band for a road class.
  virtual CongestionModel::Band GetTraffic(RoadClass road_class, SimTime now,
                                           SimTime target,
                                           EisFetch* fetch = nullptr);

  /// L and A for a whole candidate set: `chargers[i]` arriving at
  /// `targets[i]`, issued at `now` for a `window_s` charge. Writes
  /// `out->energy[i]`, `out->availability[i]` and `out->fetch[i]` — the
  /// same values, and the same cache accounting, as the per-charger
  /// GetEnergyForecast/GetAvailability calls in candidate order — with two
  /// short lock holds per source store around its upstream fetches.
  virtual void GetForecastBatch(std::span<const EvCharger* const> chargers,
                                std::span<const SimTime> targets, SimTime now,
                                double window_s, ForecastBatch* out);

  /// Upstream call and cache counters, materialized from the atomics.
  /// Safe to call concurrently with serving traffic.
  EisCallStats Snapshot() const;

  /// Wires the upstream-call counters and the three response caches onto
  /// `registry` under the `eis.{weather,availability,traffic}.*` names,
  /// so a statsz export reports live call volumes and hit rates. Wire
  /// once, before serving traffic starts; the registry must outlive this
  /// server's use of it. (Virtual so the resilient decorator can add its
  /// retry/breaker/degradation instruments in the same call.)
  virtual void AttachMetrics(obs::MetricsRegistry* registry);

 protected:
  /// Key/quantization helpers shared with the resilient subclass: both
  /// paths must map a request to the identical cache key and snapped
  /// upstream arguments, or the fault-free decorated path would diverge
  /// from the undecorated one.
  static uint64_t TimeBucket(SimTime t);
  static SimTime SnapToBucket(SimTime t);

  /// Column keys (target bucket left 0: it varies per slot) of the three
  /// column stores. They fold in the thread's active world revision
  /// (ScopedWorldRevisions) when one is installed: a published refresh
  /// bumps the revision, which re-keys the affected upstream so stale
  /// responses become unreachable without a sweep. The weather key also
  /// carries the charge window, because the forecast integrates over it.
  static ColumnKey WeatherColumn(SimTime now, double window_s);
  static ColumnKey AvailabilityColumn(SimTime now);
  static ColumnKey TrafficColumn(SimTime now);

  /// The slot of `road_class` arriving at `target` in a traffic column.
  static SlotKey TrafficSlot(RoadClass road_class, SimTime target);

  /// Per-source resolution behind both the Get* calls and
  /// GetForecastBatch: `out[i]` for `chargers[i]` arriving at `targets[i]`,
  /// `fetch[i]` raised to the rung used, `claims` (and for weather
  /// `windows`) the caller's scratch. Here the upstream is the simulated
  /// service itself and cannot fail, and a weather call prices one
  /// SolarWindow per distinct target bucket it misses, shared by every
  /// charger missing in that bucket; each missed slot still counts one
  /// upstream call. ResilientInformationServer overrides all three
  /// Resolve* steps with its guarded, degrading fetch over the same
  /// column slots.
  virtual void ResolveWeather(std::span<const EvCharger* const> chargers,
                              std::span<const SimTime> targets, SimTime now,
                              double window_s, EnergyForecast* out,
                              EisFetch* fetch, std::span<SlotClaim> claims,
                              std::vector<SolarWindow>* windows);
  virtual void ResolveAvailability(std::span<const EvCharger* const> chargers,
                                   std::span<const SimTime> targets,
                                   SimTime now, AvailabilityForecast* out,
                                   EisFetch* fetch,
                                   std::span<SlotClaim> claims);

  /// The traffic step behind GetTraffic: `*out` for `road_class` arriving
  /// at `target`, `*fetch` raised to the rung used. Traffic has no
  /// charger span, so this resolves one slot of `traffic_columns_`.
  virtual void ResolveTraffic(RoadClass road_class, SimTime now,
                              SimTime target, CongestionModel::Band* out,
                              EisFetch* fetch);

  /// Bumps the per-upstream call counter (atomic + registry mirror).
  void CountWeatherCall();
  void CountAvailabilityCall();
  void CountTrafficCall();

  /// The one lookup loop behind every weather/availability response,
  /// ForecastColumns::Resolve over `store`: a fresh slot is served;
  /// otherwise `upstream(charger, snapped_now, snapped_target)` (a Result;
  /// the call counts itself) is tried once per slot, with the store
  /// unlocked, and stored on success; on failure `degrade(charger,
  /// stale_or_null, &rung)` picks the ladder's answer. `fetch[i]` is
  /// raised to the rung used; `claims` is caller-owned scratch.
  template <typename Value, typename Upstream, typename Degrade>
  static void Resolve(ForecastColumns<Value>* store, const ColumnKey& base,
                      std::span<const EvCharger* const> chargers,
                      std::span<const SimTime> targets, SimTime now,
                      Upstream&& upstream, Degrade&& degrade, Value* out,
                      EisFetch* fetch, std::span<SlotClaim> claims) {
    const SimTime snapped_now = SnapToBucket(now);
    store->Resolve(
        base, now, claims.first(chargers.size()), out,
        [chargers, targets](size_t i) {
          return SlotKey{TimeBucket(targets[i]), chargers[i]->id};
        },
        [&](size_t i, uint64_t bucket) {
          return upstream(*chargers[i], snapped_now,
                          static_cast<double>(bucket) * kBucketSeconds);
        },
        [&](size_t i, const Value* stale) {
          EisFetch rung = EisFetch::kFresh;
          Value value = degrade(*chargers[i], stale, &rung);
          fetch[i] = std::max(fetch[i], rung);
          return value;
        });
  }

  /// Upstream APIs serve 15-minute buckets; requests are snapped to the
  /// bucket start so a response is a pure function of its cache key.
  static constexpr double kBucketSeconds = 15.0 * kSecondsPerMinute;

  SolarEnergyService* energy_;
  const AvailabilityService* availability_;
  const CongestionModel* congestion_;

  /// Slot budget of each column store.
  static constexpr size_t kStoreCapacity = 1 << 16;

  // Column keys quantize both the issue time and the target to the
  // forecast bucket and slots are indexed by charger id (traffic: road
  // class), so a cached response equals what the upstream service would
  // return — the cache changes cost, never answers.
  ForecastColumns<EnergyForecast> weather_columns_;
  ForecastColumns<AvailabilityForecast> availability_columns_;
  ForecastColumns<CongestionModel::Band> traffic_columns_;

 private:
  std::atomic<uint64_t> weather_calls_{0};
  std::atomic<uint64_t> availability_calls_{0};
  std::atomic<uint64_t> traffic_calls_{0};

  // Registry mirrors (null until AttachMetrics): the internal atomics
  // stay authoritative for Snapshot(); these feed the statsz export.
  obs::Counter* weather_calls_mirror_ = nullptr;
  obs::Counter* availability_calls_mirror_ = nullptr;
  obs::Counter* traffic_calls_mirror_ = nullptr;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_EIS_INFORMATION_SERVER_H_
