#ifndef ECOCHARGE_RESILIENCE_RESILIENT_INFORMATION_SERVER_H_
#define ECOCHARGE_RESILIENCE_RESILIENT_INFORMATION_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "eis/information_server.h"
#include "resilience/circuit_breaker.h"
#include "resilience/deadline.h"
#include "resilience/eis_source.h"
#include "resilience/fault_injector.h"
#include "resilience/retry_policy.h"

namespace ecocharge {
namespace resilience {

/// \brief Full resilience configuration for the EIS fetch path.
struct ResilienceOptions {
  /// Injected failure modes per upstream (all inactive by default, which
  /// makes the decorated server behave bit-identically to the plain one).
  FaultInjectorOptions faults;

  /// Retry/backoff applied between failed attempts of one request.
  RetryPolicyOptions retry;

  /// Per-upstream circuit breaker configuration.
  CircuitBreakerOptions breaker;

  /// Seed of the backoff-jitter RNG streams (mixed per upstream, separate
  /// from the fault schedule so retries never perturb the fault draws).
  uint64_t retry_seed = 0xB0FFULL;
};

/// \brief Point-in-time resilience accounting for one upstream.
struct UpstreamResilienceStats {
  uint64_t retries = 0;              ///< retry attempts issued
  double backoff_ms = 0.0;           ///< virtual backoff charged, total
  uint64_t stale_serves = 0;         ///< responses served past their TTL
  uint64_t climatological_serves = 0;  ///< widened-default responses
  uint64_t breaker_rejections = 0;   ///< requests short-circuited by breaker
  uint64_t breaker_opens = 0;        ///< breaker open transitions
  BreakerState breaker_state = BreakerState::kClosed;
};

/// \brief InformationServer decorated with the resilience ladder.
///
/// Same stores, same keys, same upstream accounting as the base class.
/// On the lookup path it overrides only the base class's three Resolve*
/// steps (weather, availability, traffic): the cache-miss path goes
/// through an EisSource that can fail (normally the owned FaultInjector),
/// guarded by a retry policy with capped decorrelated-jitter backoff and a
/// per-upstream circuit breaker.
/// When the upstream cannot be reached the server degrades instead of
/// failing, walking down the ladder (DESIGN.md §11):
///
///   1. fresh   — cache hit within TTL, or a successful (possibly
///                retried) upstream fetch;
///   2. stale   — the expired cache entry, served as-is
///                (stale-while-revalidate: the failed refresh already
///                happened, the old answer is still the best available);
///   3. climatological — no cache entry at all: a conservative default
///                whose interval is *widened* to certainly contain the
///                truth, so rankings lose sharpness, never correctness.
///
/// The rung that produced each response is reported through the EisFetch
/// out-parameter so estimates can carry a degradation flag end to end.
/// Backoff and injected latency are charged to the caller's
/// ScopedRequestDeadline, never slept, so everything stays deterministic.
///
/// Thread safety: same contract as the base class. Breakers and jitter
/// RNGs are mutex-guarded per upstream; degradation counters are relaxed
/// atomics.
class ResilientInformationServer : public InformationServer {
 public:
  /// Decorates the three simulated services behind an owned
  /// DirectEisSource + FaultInjector chain configured by `options.faults`.
  ResilientInformationServer(SolarEnergyService* energy,
                             const AvailabilityService* availability,
                             const CongestionModel* congestion,
                             const EisOptions& eis_options = {},
                             const ResilienceOptions& options = {});

  /// Test seam: decorates an externally owned source (e.g. a scripted
  /// failure sequence) instead of building the injector chain. The
  /// services are still wired for the base class; `source` must outlive
  /// the server.
  ResilientInformationServer(EisSource* source, SolarEnergyService* energy,
                             const AvailabilityService* availability,
                             const CongestionModel* congestion,
                             const EisOptions& eis_options = {},
                             const ResilienceOptions& options = {});

  /// Wires the base EIS instruments plus, per upstream,
  /// `resilience.<kind>.{retries,backoff_ms,stale_serves,
  /// climatological_serves,breaker_rejected,breaker_state,breaker_opens}`
  /// and the injector's `fault.<kind>.*` counters. Null detaches.
  void AttachMetrics(obs::MetricsRegistry* registry) override;

  /// Resilience accounting for one upstream; safe under traffic.
  UpstreamResilienceStats ResilienceSnapshot(UpstreamKind kind,
                                             SimTime now) const;

  /// The owned injector, or null when the test-seam constructor was used.
  FaultInjector* fault_injector() { return injector_.get(); }

  const RetryPolicy& retry_policy() const { return retry_policy_; }

 private:
  struct UpstreamState {
    std::unique_ptr<CircuitBreaker> breaker;
    mutable std::mutex mu;  ///< guards the jitter RNG + backoff total
    Rng rng{1};
    double backoff_ms = 0.0;
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> stale_serves{0};
    std::atomic<uint64_t> climatological_serves{0};
    std::atomic<uint64_t> breaker_rejections{0};
    obs::Counter* retries_mirror = nullptr;
    obs::Counter* backoff_ms_mirror = nullptr;
    obs::Counter* stale_mirror = nullptr;
    obs::Counter* climatological_mirror = nullptr;
    obs::Counter* rejected_mirror = nullptr;
  };

  void InitUpstreams();

  UpstreamState& StateFor(UpstreamKind kind) {
    return upstreams_[static_cast<size_t>(kind)];
  }

  void CountStaleServe(UpstreamKind kind);
  void CountClimatologicalServe(UpstreamKind kind);

  /// The ladder below a failed upstream fetch: the stale entry when there
  /// is one, else `climatological`; counts the serve and sets `*rung`.
  template <typename T>
  T Degrade(UpstreamKind kind, const T* stale, const T& climatological,
            EisFetch* rung) {
    if (stale) {
      CountStaleServe(kind);
      *rung = EisFetch::kStale;
      return *stale;
    }
    CountClimatologicalServe(kind);
    *rung = EisFetch::kClimatological;
    return climatological;
  }

  /// Every call of the three sources lands here, on the base class's
  /// column slots: a fresh slot is served, a miss (absent or expired)
  /// goes through the guarded upstream, and a failure walks the ladder
  /// for that slot only (the expired value, else the climatological
  /// default).
  void ResolveWeather(std::span<const EvCharger* const> chargers,
                      std::span<const SimTime> targets, SimTime now,
                      double window_s, EnergyForecast* out,
                      EisFetch* fetch, std::span<SlotClaim> claims,
                      std::vector<SolarWindow>* windows) override;
  void ResolveAvailability(std::span<const EvCharger* const> chargers,
                           std::span<const SimTime> targets, SimTime now,
                           AvailabilityForecast* out, EisFetch* fetch,
                           std::span<SlotClaim> claims) override;
  void ResolveTraffic(RoadClass road_class, SimTime now, SimTime target,
                      CongestionModel::Band* out, EisFetch* fetch) override;

  /// One guarded upstream request: breaker admission, then attempt /
  /// backoff / retry until success, retry exhaustion, deadline-budget
  /// exhaustion, or the breaker tripping mid-request. `attempt` performs
  /// exactly one upstream call (including its call accounting).
  template <typename T, typename Fn>
  Result<T> FetchWithResilience(UpstreamKind kind, SimTime now, Fn&& attempt) {
    UpstreamState& st = StateFor(kind);
    if (!st.breaker->Allow(now)) {
      st.breaker_rejections.fetch_add(1, std::memory_order_relaxed);
      if (st.rejected_mirror) st.rejected_mirror->Add();
      return Status::Unavailable(std::string(UpstreamKindName(kind)) +
                                 " circuit open");
    }
    RetryPolicy::Attempt tries;
    for (;;) {
      Result<T> result = attempt();
      if (result.ok()) {
        st.breaker->RecordSuccess(now);
        return result;
      }
      st.breaker->RecordFailure(now);
      double backoff;
      {
        std::lock_guard<std::mutex> lock(st.mu);
        backoff = retry_policy_.NextBackoffMs(
            &tries, &st.rng, ScopedRequestDeadline::RemainingMs());
        if (backoff >= 0.0) st.backoff_ms += backoff;
      }
      if (backoff < 0.0) return result;
      ScopedRequestDeadline::Charge(backoff);
      st.retries.fetch_add(1, std::memory_order_relaxed);
      if (st.retries_mirror) st.retries_mirror->Add();
      if (st.backoff_ms_mirror) {
        st.backoff_ms_mirror->Add(static_cast<uint64_t>(backoff + 0.5));
      }
      if (!st.breaker->Allow(now)) {
        st.breaker_rejections.fetch_add(1, std::memory_order_relaxed);
        if (st.rejected_mirror) st.rejected_mirror->Add();
        return result;
      }
    }
  }

  ResilienceOptions options_;
  RetryPolicy retry_policy_;
  std::unique_ptr<DirectEisSource> direct_;
  std::unique_ptr<FaultInjector> injector_;
  EisSource* source_;  ///< top of the decoration chain (not owned if external)
  UpstreamState upstreams_[kNumUpstreamKinds];
};

}  // namespace resilience
}  // namespace ecocharge

#endif  // ECOCHARGE_RESILIENCE_RESILIENT_INFORMATION_SERVER_H_
