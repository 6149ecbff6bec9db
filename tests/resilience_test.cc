// The resilience stack (DESIGN.md §11): deterministic fault injection,
// retry/backoff under a virtual deadline budget, per-upstream circuit
// breaking, and the fresh -> stale -> climatological degradation ladder.
// Everything here is sleep-free and bit-stable: faults and backoff come
// from seeded RNG streams, latency is charged to a virtual budget, and
// the breaker clock is simulation time.

#include "resilience/resilient_information_server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/protocol.h"
#include "resilience/circuit_breaker.h"
#include "resilience/deadline.h"
#include "resilience/eis_source.h"
#include "resilience/fault_injector.h"
#include "resilience/retry_policy.h"
#include "server/offering_server.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace resilience {
namespace {

// ---------------------------------------------------------------------------
// ScopedRequestDeadline

TEST(ScopedRequestDeadlineTest, InactiveBudgetIsInfinite) {
  EXPECT_TRUE(std::isinf(ScopedRequestDeadline::RemainingMs()));
  ScopedRequestDeadline::Charge(1e9);  // no-op without an active scope
  EXPECT_TRUE(std::isinf(ScopedRequestDeadline::RemainingMs()));
}

TEST(ScopedRequestDeadlineTest, ChargesSaturateAtZero) {
  ScopedRequestDeadline deadline(100.0);
  EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 100.0);
  ScopedRequestDeadline::Charge(30.0);
  EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 70.0);
  ScopedRequestDeadline::Charge(-5.0);  // non-positive charges are no-ops
  EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 70.0);
  ScopedRequestDeadline::Charge(500.0);
  EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 0.0);
  EXPECT_DOUBLE_EQ(deadline.spent_ms(), 530.0);
}

TEST(ScopedRequestDeadlineTest, ScopesNestLikeRpcDeadlines) {
  ScopedRequestDeadline outer(100.0);
  ScopedRequestDeadline::Charge(10.0);
  {
    ScopedRequestDeadline inner(20.0);
    EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 20.0);
    ScopedRequestDeadline::Charge(5.0);
    EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 15.0);
  }
  // The inner scope's charges also count against the outer budget.
  EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 85.0);
}

// ---------------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicyTest, FirstBackoffIsTheBaseThenJitters) {
  RetryPolicyOptions opts;
  opts.max_attempts = 10;
  opts.base_backoff_ms = 5.0;
  opts.max_backoff_ms = 100.0;
  RetryPolicy policy(opts);
  RetryPolicy::Attempt attempt;
  Rng rng(7);
  double first = policy.NextBackoffMs(&attempt, &rng, 1e9);
  EXPECT_DOUBLE_EQ(first, 5.0);  // degenerate [base, base] interval
  for (int i = 0; i < 8; ++i) {
    double b = policy.NextBackoffMs(&attempt, &rng, 1e9);
    EXPECT_GE(b, opts.base_backoff_ms);
    EXPECT_LE(b, opts.max_backoff_ms);
  }
}

TEST(RetryPolicyTest, SameSeedSameBackoffSequence) {
  RetryPolicy policy({/*max_attempts=*/16, 5.0, 100.0});
  RetryPolicy::Attempt a, b;
  Rng rng_a(99), rng_b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(policy.NextBackoffMs(&a, &rng_a, 1e9),
                     policy.NextBackoffMs(&b, &rng_b, 1e9));
  }
}

TEST(RetryPolicyTest, GivesUpWhenAttemptsAreExhausted) {
  RetryPolicy policy({/*max_attempts=*/3, 5.0, 100.0});
  RetryPolicy::Attempt attempt;
  Rng rng(1);
  // 3 attempts total = 2 backoffs between them, then give up.
  EXPECT_GE(policy.NextBackoffMs(&attempt, &rng, 1e9), 0.0);
  EXPECT_GE(policy.NextBackoffMs(&attempt, &rng, 1e9), 0.0);
  EXPECT_LT(policy.NextBackoffMs(&attempt, &rng, 1e9), 0.0);
}

TEST(RetryPolicyTest, GivesUpWhenBackoffExceedsRemainingBudget) {
  RetryPolicy policy({/*max_attempts=*/10, 5.0, 100.0});
  RetryPolicy::Attempt attempt;
  Rng rng(1);
  // A 5 ms backoff does not fit in a 1 ms budget: retrying past the
  // deadline only burns upstream quota.
  EXPECT_LT(policy.NextBackoffMs(&attempt, &rng, 1.0), 0.0);
}

TEST(RetryPolicyTest, SingleAttemptMeansNoRetries) {
  RetryPolicy policy({/*max_attempts=*/1, 5.0, 100.0});
  RetryPolicy::Attempt attempt;
  Rng rng(1);
  EXPECT_LT(policy.NextBackoffMs(&attempt, &rng, 1e9), 0.0);
}

// ---------------------------------------------------------------------------
// CircuitBreaker

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndRecovers) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  opts.open_duration_s = 10.0;
  opts.half_open_probes = 1;
  CircuitBreaker breaker(opts);

  EXPECT_EQ(breaker.state(0.0), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(0.0));
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(0.0), BreakerState::kClosed);  // below threshold
  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(0.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  // Open: short-circuit until the cooldown elapses.
  EXPECT_FALSE(breaker.Allow(5.0));
  EXPECT_EQ(breaker.state(9.9), BreakerState::kOpen);

  // Cooldown elapsed: one probe passes, the next is rejected.
  EXPECT_EQ(breaker.state(10.0), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Allow(10.0));
  EXPECT_FALSE(breaker.Allow(10.0));

  // Probe success closes from any state.
  breaker.RecordSuccess(10.0);
  EXPECT_EQ(breaker.state(10.0), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(10.0));
}

TEST(CircuitBreakerTest, ProbeFailureReopensForAnotherCooldown) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_duration_s = 10.0;
  CircuitBreaker breaker(opts);

  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_TRUE(breaker.Allow(10.0));  // probe
  breaker.RecordFailure(10.0);       // probe fails -> re-open
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.Allow(15.0));
  EXPECT_EQ(breaker.state(15.0), BreakerState::kOpen);
  EXPECT_TRUE(breaker.Allow(20.0));  // next cooldown elapsed
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  CircuitBreaker breaker(opts);
  for (int round = 0; round < 5; ++round) {
    breaker.RecordFailure(0.0);
    breaker.RecordFailure(0.0);
    breaker.RecordSuccess(0.0);  // streak broken: never reaches 3
  }
  EXPECT_EQ(breaker.state(0.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreakerTest, StateNamesAreDistinct) {
  EXPECT_EQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_EQ(BreakerStateName(BreakerState::kHalfOpen), "half-open");
  EXPECT_EQ(BreakerStateName(BreakerState::kOpen), "open");
}

// ---------------------------------------------------------------------------
// FaultInjector

/// Infallible scripted upstream with fixed, recognizable responses.
class FixedSource : public EisSource {
 public:
  Result<EnergyForecast> FetchEnergyForecast(const EvCharger&, SimTime,
                                             SimTime, double) override {
    return EnergyForecast{1.0, 2.0};
  }
  Result<AvailabilityForecast> FetchAvailability(const EvCharger&, SimTime,
                                                 SimTime) override {
    return AvailabilityForecast{0.25, 0.75};
  }
  Result<CongestionModel::Band> FetchTraffic(RoadClass, SimTime,
                                             SimTime) override {
    return CongestionModel::Band{0.4, 0.9};
  }
};

EvCharger TestCharger(ChargerId id = 0) {
  EvCharger c;
  c.id = id;
  c.pv_capacity_kw = 40.0;
  c.type = ChargerType::kAc22;
  return c;
}

TEST(FaultInjectorTest, InactiveProfileForwardsEverything) {
  FixedSource source;
  FaultInjector injector(&source, FaultInjectorOptions{});
  for (int i = 0; i < 50; ++i) {
    auto r = injector.FetchAvailability(TestCharger(), 0.0, 0.0);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->min, 0.25);
  }
  FaultStats stats = injector.Snapshot(UpstreamKind::kAvailability);
  EXPECT_EQ(stats.calls, 50u);
  EXPECT_EQ(stats.Failures(), 0u);
}

TEST(FaultInjectorTest, SameSeedSameFaultSchedule) {
  FaultProfile profile;
  profile.error_probability = 0.3;
  profile.spike_probability = 0.1;
  auto run = [&](uint64_t seed) {
    FixedSource source;
    FaultInjector injector(&source, FaultInjectorOptions::Uniform(profile,
                                                                  seed));
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes.push_back(
          injector.FetchTraffic(RoadClass::kLocal, 0.0, 0.0).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(run(1234), run(5678));
}

TEST(FaultInjectorTest, UpstreamStreamsAreIndependent) {
  // Enabling faults on one upstream must not perturb another's schedule.
  FaultProfile noisy;
  noisy.error_probability = 0.5;
  FaultInjectorOptions only_weather;
  only_weather.weather = noisy;
  FaultInjectorOptions weather_and_traffic = only_weather;
  weather_and_traffic.traffic = noisy;

  auto weather_outcomes = [&](const FaultInjectorOptions& opts) {
    FixedSource source;
    FaultInjector injector(&source, opts);
    std::vector<bool> outcomes;
    for (int i = 0; i < 100; ++i) {
      // Interleave traffic calls; they draw from their own stream.
      injector.FetchTraffic(RoadClass::kLocal, 0.0, 0.0).ok();
      outcomes.push_back(
          injector.FetchEnergyForecast(TestCharger(), 0.0, 0.0, 3600.0).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(weather_outcomes(only_weather),
            weather_outcomes(weather_and_traffic));
}

TEST(FaultInjectorTest, CertainErrorAlwaysFailsWithUnavailable) {
  FaultProfile profile;
  profile.error_probability = 1.0;
  FixedSource source;
  FaultInjector injector(&source, FaultInjectorOptions::Uniform(profile));
  auto r = injector.FetchAvailability(TestCharger(), 0.0, 0.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(injector.Snapshot(UpstreamKind::kAvailability).errors, 1u);
}

TEST(FaultInjectorTest, RateLimitWindowRejectsExcessCalls) {
  FaultProfile profile;
  profile.rate_limit = 3;
  profile.rate_window_s = 60.0;
  FixedSource source;
  FaultInjector injector(&source, FaultInjectorOptions::Uniform(profile));
  int ok = 0;
  for (int i = 0; i < 5; ++i) {
    if (injector.FetchTraffic(RoadClass::kLocal, 10.0, 10.0).ok()) ++ok;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(injector.Snapshot(UpstreamKind::kTraffic).rate_limited, 2u);
  // A new window refills the quota.
  EXPECT_TRUE(injector.FetchTraffic(RoadClass::kLocal, 70.0, 70.0).ok());
}

TEST(FaultInjectorTest, LatencyIsChargedToTheDeadlineNotSlept) {
  FaultProfile profile;
  profile.base_latency_ms = 30.0;
  FixedSource source;
  FaultInjector injector(&source, FaultInjectorOptions::Uniform(profile));
  ScopedRequestDeadline deadline(100.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(injector.FetchAvailability(TestCharger(), 0.0, 0.0).ok());
  }
  EXPECT_DOUBLE_EQ(ScopedRequestDeadline::RemainingMs(), 10.0);
  EXPECT_DOUBLE_EQ(deadline.spent_ms(), 90.0);
}

TEST(FaultInjectorTest, StallBurstFailsConsecutiveCalls) {
  FaultProfile profile;
  profile.stall_probability = 1.0;  // first call enters the burst
  profile.stall_calls = 4;
  FixedSource source;
  FaultInjector injector(&source, FaultInjectorOptions::Uniform(profile));
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(injector.FetchTraffic(RoadClass::kLocal, 0.0, 0.0).ok())
        << "call " << i << " should be inside the stall burst";
  }
  EXPECT_EQ(injector.Snapshot(UpstreamKind::kTraffic).stall_failures, 4u);
}

// ---------------------------------------------------------------------------
// Degradation ladder (scripted upstream through the test seam)

/// Upstream whose three sources can be toggled down by the test.
class ToggleSource : public FixedSource {
 public:
  Result<AvailabilityForecast> FetchAvailability(const EvCharger& charger,
                                                 SimTime now,
                                                 SimTime target) override {
    if (fail) return Status::Unavailable("scripted outage");
    return FixedSource::FetchAvailability(charger, now, target);
  }
  Result<EnergyForecast> FetchEnergyForecast(const EvCharger& charger,
                                             SimTime now, SimTime target,
                                             double window_s) override {
    if (fail) return Status::Unavailable("scripted outage");
    return FixedSource::FetchEnergyForecast(charger, now, target, window_s);
  }
  Result<CongestionModel::Band> FetchTraffic(RoadClass road_class,
                                             SimTime now,
                                             SimTime target) override {
    if (fail) return Status::Unavailable("scripted outage");
    return FixedSource::FetchTraffic(road_class, now, target);
  }
  bool fail = false;
};

class DegradationLadderTest : public ::testing::Test {
 protected:
  DegradationLadderTest()
      : energy_(SolarModel{}, ClimateParams{}, 11),
        availability_(12),
        congestion_(13) {}

  /// Short TTLs so a fetch can go stale within one 15-minute cache
  /// bucket; one retry attempt and a lenient breaker keep the ladder
  /// mechanics in the foreground.
  ResilientInformationServer MakeServer() {
    EisOptions eis;
    eis.weather_ttl_s = 1.0;
    eis.availability_ttl_s = 1.0;
    eis.traffic_ttl_s = 1.0;
    ResilienceOptions res;
    res.retry.max_attempts = 1;
    res.breaker.failure_threshold = 1000;
    return ResilientInformationServer(&source_, &energy_, &availability_,
                                      &congestion_, eis, res);
  }

  SolarEnergyService energy_;
  AvailabilityService availability_;
  CongestionModel congestion_;
  ToggleSource source_;
};

TEST_F(DegradationLadderTest, HealthyUpstreamServesFresh) {
  ResilientInformationServer server = MakeServer();
  EisFetch fetch = EisFetch::kClimatological;
  AvailabilityForecast f =
      server.GetAvailability(TestCharger(), 0.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kFresh);
  EXPECT_DOUBLE_EQ(f.min, 0.25);
  EXPECT_DOUBLE_EQ(f.max, 0.75);
}

TEST_F(DegradationLadderTest, OutageServesStaleCacheEntry) {
  ResilientInformationServer server = MakeServer();
  EvCharger c = TestCharger(3);
  // Populate the cache, then let the entry expire (same 15-minute bucket,
  // past the 1 s TTL) while the upstream is down.
  server.GetAvailability(c, 0.0, 0.0);
  source_.fail = true;
  EisFetch fetch = EisFetch::kFresh;
  AvailabilityForecast f = server.GetAvailability(c, 30.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kStale);
  EXPECT_DOUBLE_EQ(f.min, 0.25);  // the cached answer, served as-is
  EXPECT_DOUBLE_EQ(f.max, 0.75);
  EXPECT_EQ(server
                .ResilienceSnapshot(UpstreamKind::kAvailability, 30.0)
                .stale_serves,
            1u);
}

TEST_F(DegradationLadderTest, OutageServesStaleTrafficSlot) {
  ResilientInformationServer server = MakeServer();
  // Populate the traffic slot, then let it expire (same 15-minute
  // bucket, past the 1 s TTL) while the upstream is down.
  server.GetTraffic(RoadClass::kArterial, 0.0, 0.0);
  source_.fail = true;
  EisFetch fetch = EisFetch::kFresh;
  CongestionModel::Band band =
      server.GetTraffic(RoadClass::kArterial, 30.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kStale);
  EXPECT_DOUBLE_EQ(band.min, 0.4);
  EXPECT_DOUBLE_EQ(band.max, 0.9);
  EXPECT_EQ(
      server.ResilienceSnapshot(UpstreamKind::kTraffic, 30.0).stale_serves,
      1u);
  // The failed refresh left the expired slot in place: it is served
  // stale again, counted as one more expiration and miss.
  server.GetTraffic(RoadClass::kArterial, 31.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kStale);
  const CacheStats traffic = server.Snapshot().traffic_cache;
  EXPECT_EQ(traffic.hits, 0u);
  EXPECT_EQ(traffic.misses, 3u);
  EXPECT_EQ(traffic.expirations, 2u);
}

TEST_F(DegradationLadderTest, OutageWithoutCacheServesWidenedDefaults) {
  ResilientInformationServer server = MakeServer();
  source_.fail = true;
  EisFetch fetch = EisFetch::kFresh;
  AvailabilityForecast a =
      server.GetAvailability(TestCharger(4), 0.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kClimatological);
  EXPECT_DOUBLE_EQ(a.min, 0.0);  // widened: certainly contains the truth
  EXPECT_DOUBLE_EQ(a.max, 1.0);

  EvCharger c = TestCharger(5);
  EnergyForecast e = server.GetEnergyForecast(c, 0.0, 0.0, 3600.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kClimatological);
  EXPECT_DOUBLE_EQ(e.min_kwh, 0.0);
  EXPECT_DOUBLE_EQ(e.max_kwh,
                   std::min(c.RateKw(), c.pv_capacity_kw) * 3600.0 /
                       kSecondsPerHour);
  EXPECT_EQ(server
                .ResilienceSnapshot(UpstreamKind::kAvailability, 0.0)
                .climatological_serves,
            1u);

  CongestionModel::Band band =
      server.GetTraffic(RoadClass::kLocal, 0.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kClimatological);
  EXPECT_DOUBLE_EQ(band.min, CongestionModel::Band{}.min);  // full range
  EXPECT_DOUBLE_EQ(band.max, CongestionModel::Band{}.max);
  EXPECT_EQ(server.ResilienceSnapshot(UpstreamKind::kTraffic, 0.0)
                .climatological_serves,
            1u);
}

TEST(ClimatologicalEnergyTest, CeilingHoldsAtLowLatitude) {
  // At 20 degrees N the June sun climbs past 86 degrees, where clear-sky
  // irradiance beats a nominal kWp's 1000 W/m^2, so the PV capacity alone
  // is no ceiling there. A fresh forecast's max_kwh never exceeds the
  // climatological one, and each server's L ceiling covers its answers.
  SolarModel solar;
  solar.latitude_deg = 20.0;
  SolarEnergyService energy(solar, ClimateParams{/*sunny_bias=*/0.9, 0.85},
                            7);
  InformationServer fresh(&energy, nullptr, nullptr);
  ResilienceOptions opts;
  opts.faults.weather.error_probability = 1.0;
  opts.retry.max_attempts = 1;
  ResilientInformationServer outage(&energy, nullptr, nullptr, EisOptions{},
                                    opts);
  EvCharger c;
  c.type = ChargerType::kDc150;
  c.pv_capacity_kw = 100.0;  // PV-bound: the 150 kW rate never caps it
  const double window_s = 3600.0;
  double fresh_peak = 0.0;
  ForecastBatch ceilings;
  for (int day = 0; day < 30; ++day) {  // the epoch is June 16
    for (double hour = 10.0; hour <= 13.0; hour += 0.25) {
      const SimTime target = day * kSecondsPerDay + hour * kSecondsPerHour;
      // Issued six hours ahead: a wide band whose upper end reaches a
      // clear sky.
      const SimTime now = target - 6.0 * kSecondsPerHour;
      EisFetch rung = EisFetch::kFresh;
      const EnergyForecast f =
          fresh.GetEnergyForecast(c, now, target, window_s);
      const EnergyForecast clim =
          outage.GetEnergyForecast(c, now, target, window_s, &rung);
      ASSERT_EQ(rung, EisFetch::kClimatological);
      EXPECT_LE(f.max_kwh, clim.max_kwh) << "day " << day << " h " << hour;
      fresh.GetEnergyCeilingBatch({&target, 1}, now, window_s, &ceilings);
      EXPECT_LE(f.max_kwh,
                EnergyCeilingKwh(c, ceilings.kwh_per_kwp[0], window_s));
      outage.GetEnergyCeilingBatch({&target, 1}, now, window_s, &ceilings);
      EXPECT_LE(clim.max_kwh,
                EnergyCeilingKwh(c, ceilings.kwh_per_kwp[0], window_s));
      fresh_peak = std::max(fresh_peak, f.max_kwh);
    }
  }
  // The old climatological ceiling, the capacity at 1000 W/m^2 over the
  // window, would have been broken.
  EXPECT_GT(fresh_peak, c.pv_capacity_kw * window_s / kSecondsPerHour);
}

TEST_F(DegradationLadderTest, RecoveryClimbsBackToFresh) {
  ResilientInformationServer server = MakeServer();
  EvCharger c = TestCharger(6);
  source_.fail = true;
  EisFetch fetch = EisFetch::kFresh;
  server.GetAvailability(c, 0.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kClimatological);
  source_.fail = false;
  server.GetAvailability(c, 0.0, 0.0, &fetch);
  EXPECT_EQ(fetch, EisFetch::kFresh);
}

TEST_F(DegradationLadderTest, PersistentFailureTripsTheBreaker) {
  EisOptions eis;
  eis.availability_ttl_s = 1.0;
  ResilienceOptions res;
  res.retry.max_attempts = 2;
  res.breaker.failure_threshold = 4;
  res.breaker.open_duration_s = 300.0;
  ResilientInformationServer server(&source_, &energy_, &availability_,
                                    &congestion_, eis, res);
  source_.fail = true;
  // Each call issues up to 2 failing attempts; the 4-failure threshold
  // trips within two calls, after which requests short-circuit.
  for (uint32_t i = 0; i < 6; ++i) {
    server.GetAvailability(TestCharger(10 + i), 0.0, 0.0);
  }
  UpstreamResilienceStats stats =
      server.ResilienceSnapshot(UpstreamKind::kAvailability, 0.0);
  EXPECT_EQ(stats.breaker_state, BreakerState::kOpen);
  EXPECT_GE(stats.breaker_opens, 1u);
  EXPECT_GT(stats.breaker_rejections, 0u);
  EXPECT_GT(stats.retries, 0u);
  // Short-circuited calls spend no upstream quota: fewer attempts than
  // calls * max_attempts.
  EXPECT_LT(server.Snapshot().availability_api_calls, 12u);
}

TEST_F(DegradationLadderTest, DeadlineBudgetStopsRetries) {
  EisOptions eis;
  ResilienceOptions res;
  res.retry.max_attempts = 4;
  res.retry.base_backoff_ms = 5.0;
  ResilientInformationServer server(&source_, &energy_, &availability_,
                                    &congestion_, eis, res);
  source_.fail = true;
  // With no budget to back off into, the first failure gives up
  // immediately: exactly one upstream attempt.
  ScopedRequestDeadline deadline(0.0);
  server.GetAvailability(TestCharger(20), 0.0, 0.0);
  EXPECT_EQ(server.Snapshot().availability_api_calls, 1u);
  EXPECT_EQ(
      server.ResilienceSnapshot(UpstreamKind::kAvailability, 0.0).retries,
      0u);
}

// ---------------------------------------------------------------------------
// Fault-free parity: the decorator must be invisible

TEST(ResilientParityTest, FaultFreeDecoratorIsBitIdenticalToPlainServer) {
  SolarEnergyService energy(SolarModel{}, ClimateParams{}, 11);
  AvailabilityService availability(12);
  CongestionModel congestion(13);
  InformationServer plain(&energy, &availability, &congestion);
  ResilientInformationServer resilient(&energy, &availability, &congestion);

  for (uint32_t id = 0; id < 8; ++id) {
    EvCharger c = TestCharger(id);
    for (int step = 0; step < 4; ++step) {
      SimTime now = 9.0 * kSecondsPerHour + step * 400.0;
      SimTime target = now + 1800.0;
      EnergyForecast pe = plain.GetEnergyForecast(c, now, target, 3600.0);
      EnergyForecast re = resilient.GetEnergyForecast(c, now, target, 3600.0);
      EXPECT_EQ(pe.min_kwh, re.min_kwh);
      EXPECT_EQ(pe.max_kwh, re.max_kwh);
      AvailabilityForecast pa = plain.GetAvailability(c, now, target);
      EisFetch fetch = EisFetch::kStale;
      AvailabilityForecast ra = resilient.GetAvailability(c, now, target,
                                                          &fetch);
      EXPECT_EQ(fetch, EisFetch::kFresh);
      EXPECT_EQ(pa.min, ra.min);
      EXPECT_EQ(pa.max, ra.max);
      CongestionModel::Band pt = plain.GetTraffic(RoadClass::kLocal, now,
                                                  target);
      CongestionModel::Band rt = resilient.GetTraffic(RoadClass::kLocal, now,
                                                      target);
      EXPECT_EQ(pt.min, rt.min);
      EXPECT_EQ(pt.max, rt.max);
    }
  }

  // Same upstream call counts and same cache hit/miss accounting: the
  // decorator changes nothing about cost either.
  EisCallStats ps = plain.Snapshot();
  EisCallStats rs = resilient.Snapshot();
  EXPECT_EQ(ps.weather_api_calls, rs.weather_api_calls);
  EXPECT_EQ(ps.availability_api_calls, rs.availability_api_calls);
  EXPECT_EQ(ps.traffic_api_calls, rs.traffic_api_calls);
  EXPECT_EQ(ps.weather_cache.hits, rs.weather_cache.hits);
  EXPECT_EQ(ps.weather_cache.misses, rs.weather_cache.misses);
  EXPECT_EQ(ps.availability_cache.hits, rs.availability_cache.hits);
  EXPECT_EQ(ps.availability_cache.misses, rs.availability_cache.misses);
  EXPECT_EQ(ps.traffic_cache.hits, rs.traffic_cache.hits);
  EXPECT_EQ(ps.traffic_cache.misses, rs.traffic_cache.misses);

  for (UpstreamKind kind : kAllUpstreamKinds) {
    UpstreamResilienceStats stats = resilient.ResilienceSnapshot(kind, 0.0);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.stale_serves, 0u);
    EXPECT_EQ(stats.climatological_serves, 0u);
    EXPECT_EQ(stats.breaker_state, BreakerState::kClosed);
  }
}

// ---------------------------------------------------------------------------
// Degraded flag end to end

TEST(DegradedFlagTest, SurvivesTheWireProtocol) {
  OfferingTable table;
  table.generated_at = 100.0;
  table.degraded = true;
  OfferingEntry entry;
  entry.charger_id = 7;
  entry.ecs.degraded = true;
  table.entries.push_back(entry);
  Result<OfferingTable> decoded =
      DecodeOfferingTable(EncodeOfferingTable(table));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->degraded);
  ASSERT_EQ(decoded->entries.size(), 1u);
  EXPECT_TRUE(decoded->entries[0].ecs.degraded);

  table.degraded = false;
  table.entries[0].ecs.degraded = false;
  decoded = DecodeOfferingTable(EncodeOfferingTable(table));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->degraded);
  EXPECT_FALSE(decoded->entries[0].ecs.degraded);
}

// ---------------------------------------------------------------------------
// OfferingServer under injected faults: degrade, never fail

class ResilientServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment();
    ASSERT_NE(env_, nullptr);
    states_ = testing_util::TinyWorkload(*env_, 6);
    ASSERT_GE(states_.size(), 4u);
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

TEST_F(ResilientServerTest, FaultFreeResilientServerMatchesPlainServer) {
  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco;
  OfferingServer plain(env_.get(), weights, eco, {});
  OfferingServerOptions options;
  options.resilient_eis = true;
  OfferingServer resilient(env_.get(), weights, eco, options);

  for (uint64_t client = 0; client < 3; ++client) {
    for (const VehicleState& state : states_) {
      OfferingTable expected, actual;
      ASSERT_TRUE(plain
                      .Submit(client, state, 3,
                              [&](const OfferingTable& t) { expected = t; })
                      .ok());
      ASSERT_TRUE(resilient
                      .Submit(client, state, 3,
                              [&](const OfferingTable& t) { actual = t; })
                      .ok());
      EXPECT_FALSE(actual.degraded);
      EXPECT_TRUE(testing_util::TablesBitIdentical(actual, expected));
    }
  }
  EXPECT_EQ(resilient.Stats().degraded_tables, 0u);
}

TEST_F(ResilientServerTest, KeepsAnsweringUnderTwentyPercentFaults) {
  FaultProfile profile;
  profile.error_probability = 0.25;
  profile.base_latency_ms = 2.0;
  profile.spike_probability = 0.05;
  OfferingServerOptions options;
  options.threads = 2;
  options.queue_depth = 1024;
  options.resilient_eis = true;
  options.resilience.faults = FaultInjectorOptions::Uniform(profile, 77);
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);

  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> nonempty{0};
  for (uint64_t client = 0; client < 6; ++client) {
    for (const VehicleState& state : states_) {
      ASSERT_TRUE(server
                      .Submit(client, state, 3,
                              [&](const OfferingTable& t) {
                                ++answered;
                                if (!t.entries.empty()) ++nonempty;
                              })
                      .ok());
    }
  }
  server.Drain();

  // Every request answered — faults degrade results, never drop them.
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(answered.load(), 6 * states_.size());
  EXPECT_EQ(stats.served, 6 * states_.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(nonempty.load(), 0u);

  // The injector really fired.
  uint64_t failures = 0;
  for (UpstreamKind kind : kAllUpstreamKinds) {
    failures +=
        server.resilient_eis()->fault_injector()->Snapshot(kind).Failures();
  }
  EXPECT_GT(failures, 0u);
}

TEST_F(ResilientServerTest, TotalOutageDegradesEveryTable) {
  FaultProfile profile;
  profile.error_probability = 1.0;
  OfferingServerOptions options;
  options.resilient_eis = true;
  options.resilience.faults = FaultInjectorOptions::Uniform(profile);
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);

  uint64_t answered = 0, degraded = 0;
  for (const VehicleState& state : states_) {
    ASSERT_TRUE(server
                    .Submit(1, state, 3,
                            [&](const OfferingTable& t) {
                              ++answered;
                              if (t.degraded) ++degraded;
                            })
                    .ok());
  }
  EXPECT_EQ(answered, states_.size());
  // With every upstream hard-down, any table with entries was built from
  // degraded components and must say so.
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(server.Stats().degraded_tables, degraded);
  // Nothing ever succeeded upstream, so every response that reached a
  // table came off the bottom rungs of the ladder.
  uint64_t ladder_serves = 0;
  for (UpstreamKind kind : kAllUpstreamKinds) {
    UpstreamResilienceStats stats =
        server.resilient_eis()->ResilienceSnapshot(kind, 0.0);
    ladder_serves += stats.stale_serves + stats.climatological_serves;
  }
  EXPECT_GT(ladder_serves, 0u);
}

TEST_F(ResilientServerTest, ResilienceMetricsAppearInTheRegistry) {
  FaultProfile profile;
  profile.error_probability = 1.0;
  OfferingServerOptions options;
  options.resilient_eis = true;
  options.resilience.faults = FaultInjectorOptions::Uniform(profile);
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  for (const VehicleState& state : states_) {
    ASSERT_TRUE(server.Submit(1, state, 3, [](const OfferingTable&) {}).ok());
  }
  const obs::MetricsRegistry& registry = server.metrics();
  ASSERT_NE(registry.FindCounter("fault.weather.calls"), nullptr);
  EXPECT_GT(registry.FindCounter("fault.weather.errors")->Value(), 0u);
  ASSERT_NE(registry.FindCounter("resilience.weather.climatological_serves"),
            nullptr);
  ASSERT_NE(registry.FindCounter("server.requests.degraded"), nullptr);
  EXPECT_EQ(registry.FindCounter("server.requests.degraded")->Value(),
            server.Stats().degraded_tables);
}

}  // namespace
}  // namespace resilience
}  // namespace ecocharge
