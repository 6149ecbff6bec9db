// Differential tests of the columnar EC estimation path: the batch
// (EcEstimator::EstimateIntervalsBatch over InformationServer::
// GetForecastBatch) against the per-candidate oracle (EstimateIntervals over
// the single-charger Get* calls), bit for bit, over randomized candidate
// sets, TTL expiry, world-revision bumps, the resilient decorator, and
// concurrent batches filling overlapping columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ec_estimator.h"
#include "eis/information_server.h"
#include "eis/world_revisions.h"
#include "resilience/eis_source.h"
#include "resilience/resilient_information_server.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using resilience::DirectEisSource;
using resilience::EisSource;
using resilience::ResilienceOptions;
using resilience::ResilientInformationServer;
using resilience::UpstreamKind;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult EcsBitIdentical(const EcIntervals& a,
                                           const EcIntervals& b) {
  const double av[] = {a.level.lo,        a.level.hi,     a.availability.lo,
                       a.availability.hi, a.derouting.lo, a.derouting.hi,
                       a.eta_s};
  const double bv[] = {b.level.lo,        b.level.hi,     b.availability.lo,
                       b.availability.hi, b.derouting.lo, b.derouting.hi,
                       b.eta_s};
  for (size_t i = 0; i < std::size(av); ++i) {
    if (!SameBits(av[i], bv[i])) {
      return ::testing::AssertionFailure()
             << "field " << i << ": " << av[i] << " vs " << bv[i];
    }
  }
  if (a.degraded != b.degraded) {
    return ::testing::AssertionFailure() << "degraded flags differ";
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameColumnAccounting(const EisCallStats& a, const EisCallStats& b) {
  EXPECT_EQ(a.weather_api_calls, b.weather_api_calls);
  EXPECT_EQ(a.availability_api_calls, b.availability_api_calls);
  EXPECT_EQ(a.weather_cache.hits, b.weather_cache.hits);
  EXPECT_EQ(a.weather_cache.misses, b.weather_cache.misses);
  EXPECT_EQ(a.weather_cache.expirations, b.weather_cache.expirations);
  EXPECT_EQ(a.availability_cache.hits, b.availability_cache.hits);
  EXPECT_EQ(a.availability_cache.misses, b.availability_cache.misses);
  EXPECT_EQ(a.availability_cache.expirations,
            b.availability_cache.expirations);
}

struct World {
  std::unique_ptr<Environment> env;
  std::vector<VehicleState> states;
};

World& SharedWorld() {
  static World world = [] {
    World w;
    w.env = testing_util::TinyEnvironment(80);
    EXPECT_NE(w.env, nullptr);
    w.states = testing_util::TinyWorkload(*w.env, 8);
    EXPECT_FALSE(w.states.empty());
    return w;
  }();
  return world;
}

/// An estimator over its own EIS, so two of them see identical but
/// independent cache histories.
struct EstimatorOver {
  EstimatorOver(Environment* env, InformationServer* eis)
      : estimator(env->dataset.network, &env->chargers, env->energy.get(),
                  env->availability.get(), env->congestion.get(),
                  env->estimator->options(), eis) {}
  EcEstimator estimator;
};

/// Random candidate ids: duplicates and ids past the fleet included.
std::vector<ChargerId> RandomCandidates(Rng* rng, size_t fleet_size) {
  std::vector<ChargerId> ids(rng->NextBounded(48));
  for (ChargerId& id : ids) {
    id = static_cast<ChargerId>(rng->NextBounded(fleet_size + 12));
  }
  if (ids.size() > 2 && rng->NextBool()) ids.push_back(ids[1]);
  return ids;
}

void RunDifferential(const EisOptions& eis_options, uint64_t seed) {
  World& w = SharedWorld();
  Environment* env = w.env.get();
  InformationServer batch_eis(env->energy.get(), env->availability.get(),
                              env->congestion.get(), eis_options);
  InformationServer oracle_eis(env->energy.get(), env->availability.get(),
                               env->congestion.get(), eis_options);
  EstimatorOver batch(env, &batch_eis);
  EstimatorOver oracle(env, &oracle_eis);
  Rng rng(seed);
  QueryContext ctx;
  SimTime clock = w.states.front().time;
  size_t compared = 0;
  for (int round = 0; round < 120; ++round) {
    VehicleState state = w.states[rng.NextBounded(w.states.size())];
    // Sub-TTL and super-TTL steps, so 1 s TTLs expire slots mid-bucket
    // while default TTLs keep them; every 40 rounds jump a bucket.
    clock += rng.NextDouble(0.0, 2.5) + (round % 40 == 39 ? 900.0 : 0.0);
    state.time = clock;
    const double norm = rng.NextBool() ? 0.0 : 40000.0;
    const std::vector<ChargerId> ids =
        RandomCandidates(&rng, env->chargers.size());
    WorldRevisions revisions;
    revisions.weather = rng.NextBounded(3);
    revisions.availability = rng.NextBounded(3);
    revisions.traffic = rng.NextBounded(3);
    std::optional<ScopedWorldRevisions> scope;
    if (round % 3 != 0) scope.emplace(revisions);

    batch.estimator.EstimateIntervalsBatch(state, ids, norm, &ctx);
    size_t j = 0;
    for (ChargerId id : ids) {
      if (id >= env->chargers.size()) continue;
      const EcIntervals want =
          oracle.estimator.EstimateIntervals(state, env->chargers[id], norm);
      ASSERT_LT(j, ctx.scored.size());
      EXPECT_EQ(ctx.scored[j].charger_id, id);
      EXPECT_TRUE(EcsBitIdentical(ctx.scored[j].ecs, want))
          << "round " << round << " candidate " << j;
      EXPECT_EQ(ctx.lanes.ids[j], id);
      EXPECT_TRUE(SameBits(ctx.lanes.level_lo[j], want.level.lo));
      EXPECT_TRUE(SameBits(ctx.lanes.avail_hi[j], want.availability.hi));
      EXPECT_TRUE(SameBits(ctx.lanes.der_hi[j], want.derouting.hi));
      ++j;
      ++compared;
    }
    EXPECT_EQ(j, ctx.scored.size());
  }
  EXPECT_GT(compared, 1000u);
  // Same per-source lookup sequence, so the column stores count exactly
  // what the per-key lookups count (traffic differs by design: the batch
  // fetches the band once per request).
  ExpectSameColumnAccounting(batch_eis.Stats(), oracle_eis.Stats());
}

TEST(EstimateBatchTest, MatchesPerCandidateOracleBitForBit) {
  RunDifferential(EisOptions{}, 0xBA7C4);
}

TEST(EstimateBatchTest, MatchesOracleAcrossOneSecondSlotExpiry) {
  EisOptions short_ttl;
  short_ttl.weather_ttl_s = 1.0;
  short_ttl.availability_ttl_s = 1.0;
  short_ttl.traffic_ttl_s = 1.0;
  RunDifferential(short_ttl, 0x5107);
  // The configuration really expires slots.
  World& w = SharedWorld();
  InformationServer eis(w.env->energy.get(), w.env->availability.get(),
                        w.env->congestion.get(), short_ttl);
  const EvCharger& c = w.env->chargers.front();
  eis.GetAvailability(c, 100.0, 100.0);
  eis.GetAvailability(c, 101.0, 100.0);  // age 1 s: still fresh
  eis.GetAvailability(c, 102.5, 100.0);  // age 2.5 s: expired
  EXPECT_EQ(eis.Stats().availability_cache.hits, 1u);
  EXPECT_EQ(eis.Stats().availability_cache.expirations, 1u);
  EXPECT_EQ(eis.Stats().availability_api_calls, 2u);
}

// ---------------------------------------------------------------------------
// The resilient decorator's batch

/// Deterministic per-charger outage: while `failing`, weather fails for
/// ids divisible by 3 and availability for ids that are 1 mod 4.
class ScriptedOutage : public EisSource {
 public:
  explicit ScriptedOutage(EisSource* inner) : inner_(inner) {}

  Result<EnergyForecast> FetchEnergyForecast(const EvCharger& charger,
                                             SimTime now, SimTime target,
                                             double window_s) override {
    if (failing && charger.id % 3 == 0) return Status::Unavailable("down");
    return inner_->FetchEnergyForecast(charger, now, target, window_s);
  }
  Result<AvailabilityForecast> FetchAvailability(const EvCharger& charger,
                                                 SimTime now,
                                                 SimTime target) override {
    if (failing && charger.id % 4 == 1) return Status::Unavailable("down");
    return inner_->FetchAvailability(charger, now, target);
  }
  Result<CongestionModel::Band> FetchTraffic(RoadClass road_class,
                                             SimTime now,
                                             SimTime target) override {
    return inner_->FetchTraffic(road_class, now, target);
  }

  bool failing = false;

 private:
  EisSource* inner_;
};

struct BatchInputs {
  std::vector<const EvCharger*> chargers;
  std::vector<SimTime> targets;
};

BatchInputs RandomBatch(const std::vector<EvCharger>& fleet, SimTime now,
                        Rng* rng) {
  BatchInputs in;
  const size_t n = 1 + rng->NextBounded(60);
  for (size_t i = 0; i < n; ++i) {
    in.chargers.push_back(&fleet[rng->NextBounded(fleet.size())]);
    in.targets.push_back(now + rng->NextDouble(0.0, 3600.0));
  }
  return in;
}

TEST(ResilientBatchTest, FaultFreeBatchMatchesPlainServer) {
  World& w = SharedWorld();
  Environment* env = w.env.get();
  InformationServer plain(env->energy.get(), env->availability.get(),
                          env->congestion.get());
  ResilientInformationServer resilient(env->energy.get(),
                                       env->availability.get(),
                                       env->congestion.get());
  Rng rng(77);
  ForecastBatch p, r;
  SimTime now = 9.0 * kSecondsPerHour;
  for (int round = 0; round < 40; ++round) {
    now += rng.NextDouble(0.0, 120.0);
    BatchInputs in = RandomBatch(env->chargers, now, &rng);
    plain.GetForecastBatch(in.chargers, in.targets, now, 3600.0, &p);
    resilient.GetForecastBatch(in.chargers, in.targets, now, 3600.0, &r);
    for (size_t i = 0; i < in.chargers.size(); ++i) {
      EXPECT_TRUE(SameBits(p.energy[i].min_kwh, r.energy[i].min_kwh));
      EXPECT_TRUE(SameBits(p.energy[i].max_kwh, r.energy[i].max_kwh));
      EXPECT_TRUE(SameBits(p.availability[i].min, r.availability[i].min));
      EXPECT_TRUE(SameBits(p.availability[i].max, r.availability[i].max));
      EXPECT_EQ(p.fetch[i], EisFetch::kFresh);
      EXPECT_EQ(r.fetch[i], EisFetch::kFresh);
    }
  }
  const EisCallStats ps = plain.Stats();
  const EisCallStats rs = resilient.Stats();
  ExpectSameColumnAccounting(ps, rs);
  EXPECT_GT(ps.weather_cache.hits, 0u);
  for (UpstreamKind kind : resilience::kAllUpstreamKinds) {
    EXPECT_EQ(resilient.ResilienceSnapshot(kind, now).stale_serves, 0u);
    EXPECT_EQ(resilient.ResilienceSnapshot(kind, now).climatological_serves,
              0u);
  }
}

TEST(ResilientBatchTest, FailuresWalkTheLadderPerCandidate) {
  World& w = SharedWorld();
  Environment* env = w.env.get();
  EisOptions eis;
  eis.weather_ttl_s = 1.0;
  eis.availability_ttl_s = 1.0;
  ResilienceOptions res;
  res.retry.max_attempts = 2;
  res.breaker.failure_threshold = 1000000;  // never trips: order-free
  DirectEisSource direct_a(env->energy.get(), env->availability.get(),
                           env->congestion.get());
  DirectEisSource direct_b(env->energy.get(), env->availability.get(),
                           env->congestion.get());
  ScriptedOutage source_a(&direct_a), source_b(&direct_b);
  ResilientInformationServer batch(&source_a, env->energy.get(),
                                   env->availability.get(),
                                   env->congestion.get(), eis, res);
  ResilientInformationServer oracle(&source_b, env->energy.get(),
                                    env->availability.get(),
                                    env->congestion.get(), eis, res);
  Rng rng(4242);
  ForecastBatch out;
  const SimTime t0 = 10.0 * kSecondsPerHour;
  // Warm half the fleet at t0, then fail at t0 + 30 s (same bucket, past
  // the 1 s TTL): cached ids go stale, never-cached ids climatological.
  std::vector<const EvCharger*> warm;
  std::vector<SimTime> warm_targets;
  for (size_t i = 0; i < env->chargers.size(); i += 2) {
    warm.push_back(&env->chargers[i]);
    warm_targets.push_back(t0 + 600.0);
  }
  batch.GetForecastBatch(warm, warm_targets, t0, 3600.0, &out);
  for (size_t i = 0; i < warm.size(); ++i) {
    oracle.GetEnergyForecast(*warm[i], t0, warm_targets[i], 3600.0);
    oracle.GetAvailability(*warm[i], t0, warm_targets[i]);
  }
  source_a.failing = source_b.failing = true;
  size_t stale = 0, climatological = 0;
  for (int round = 0; round < 10; ++round) {
    const SimTime now = t0 + 30.0 + round;
    BatchInputs in;
    for (int i = 0; i < 40; ++i) {
      in.chargers.push_back(&env->chargers[rng.NextBounded(
          env->chargers.size())]);
      in.targets.push_back(t0 + 600.0);
    }
    batch.GetForecastBatch(in.chargers, in.targets, now, 3600.0, &out);
    for (size_t i = 0; i < in.chargers.size(); ++i) {
      EisFetch ef = EisFetch::kFresh, af = EisFetch::kFresh;
      EnergyForecast e = oracle.GetEnergyForecast(*in.chargers[i], now,
                                                  in.targets[i], 3600.0, &ef);
      AvailabilityForecast a =
          oracle.GetAvailability(*in.chargers[i], now, in.targets[i], &af);
      EXPECT_EQ(out.fetch[i], std::max(ef, af)) << "candidate " << i;
      EXPECT_TRUE(SameBits(out.energy[i].min_kwh, e.min_kwh));
      EXPECT_TRUE(SameBits(out.energy[i].max_kwh, e.max_kwh));
      EXPECT_TRUE(SameBits(out.availability[i].min, a.min));
      EXPECT_TRUE(SameBits(out.availability[i].max, a.max));
      stale += out.fetch[i] == EisFetch::kStale;
      climatological += out.fetch[i] == EisFetch::kClimatological;
    }
  }
  EXPECT_GT(stale, 0u);
  EXPECT_GT(climatological, 0u);
  for (UpstreamKind kind : {UpstreamKind::kWeather,
                            UpstreamKind::kAvailability}) {
    const auto b = batch.ResilienceSnapshot(kind, t0);
    const auto o = oracle.ResilienceSnapshot(kind, t0);
    EXPECT_EQ(b.stale_serves, o.stale_serves);
    EXPECT_EQ(b.climatological_serves, o.climatological_serves);
    EXPECT_EQ(b.retries, o.retries);
  }
  ExpectSameColumnAccounting(batch.Stats(), oracle.Stats());
}

// ---------------------------------------------------------------------------
// The column store itself

/// Resolves `keys` against `store` at `now`. Every fetch answers with
/// `value` and bumps `*calls`; `fail` makes every fetch fail instead, and
/// `on_fetch` (when set) runs inside each fetch, with the store unlocked.
template <typename Hook = void (*)()>
std::vector<AvailabilityForecast> ResolveSlots(
    ForecastColumns<AvailabilityForecast>* store,
    const std::vector<SlotKey>& keys, SimTime now, AvailabilityForecast value,
    std::atomic<int>* calls, bool fail = false, Hook on_fetch = [] {}) {
  std::vector<AvailabilityForecast> out(keys.size());
  std::vector<SlotClaim> claims(keys.size());
  store->Resolve(
      ColumnKey{}, now, claims, out.data(),
      [&](size_t i) { return keys[i]; },
      [&](size_t, uint64_t) -> Result<AvailabilityForecast> {
        calls->fetch_add(1);
        on_fetch();
        if (fail) return Status::Unavailable("upstream down");
        return value;
      },
      [](size_t, const AvailabilityForecast* stale) {
        return stale ? *stale : AvailabilityForecast{-1.0, -1.0};
      });
  return out;
}

TEST(ForecastColumnsTest, HugeChargerIdDoesNotAllocateInProportion) {
  ForecastColumns<AvailabilityForecast> store(60.0, 1 << 16);
  std::atomic<int> calls{0};
  ResolveSlots(&store, {{3, 4000000000u}}, 0.0, {0.1, 0.2}, &calls);
  ResolveSlots(&store, {{3, 7}}, 0.0, {0.3, 0.4}, &calls);
  std::vector<AvailabilityForecast> got = ResolveSlots(
      &store, {{3, 4000000000u}, {3, 7}}, 0.0, {0.5, 0.6}, &calls);
  EXPECT_EQ(calls.load(), 2);  // both slots were fresh on the third call
  EXPECT_EQ(got[0].min, 0.1);
  EXPECT_EQ(got[1].max, 0.4);
  EXPECT_EQ(store.allocated_slots(), 8u + 1u);  // dense 0..7 + one sparse
}

TEST(ForecastColumnsTest, SlotBudgetSweepsThenClears) {
  ForecastColumns<AvailabilityForecast> store(10.0, 100);
  std::atomic<int> calls{0};
  auto fill = [&](uint64_t bucket, SimTime now) {
    std::vector<SlotKey> keys;
    for (ChargerId id = 0; id < 50; ++id) keys.push_back({bucket, id});
    ResolveSlots(&store, keys, now, AvailabilityForecast{}, &calls);
  };
  fill(1, 0.0);
  fill(2, 0.0);
  EXPECT_EQ(store.num_columns(), 2u);
  fill(3, 20.0);  // at budget: both older columns have expired
  EXPECT_EQ(store.num_columns(), 1u);
  fill(4, 20.0);
  fill(5, 20.0);  // at budget, nothing expired: everything is dropped
  EXPECT_EQ(store.num_columns(), 1u);
  EXPECT_LE(store.allocated_slots(), 100u);
}

// A whole batch against the same keys resolved one at a time on a twin
// store, under slot budgets small enough that sweeps (220) and clears
// (150) land mid-batch: the same answers, upstream calls, counts and
// store shape.
TEST(ForecastColumnsTest, BatchMatchesOneAtATimeUnderTheSlotBudget) {
  for (size_t budget : {150u, 220u}) {
    ForecastColumns<AvailabilityForecast> batch_store(10.0, budget);
    ForecastColumns<AvailabilityForecast> single_store(10.0, budget);
    std::atomic<int> batch_calls{0}, single_calls{0};
    Rng rng(31);
    SimTime now = 0.0;
    for (int round = 0; round < 200; ++round) {
      now += rng.NextDouble(0.0, 3.0);
      // Arrival buckets drift with time, so old columns expire as well.
      std::vector<SlotKey> keys(rng.NextBounded(60));
      for (SlotKey& key : keys) {
        key = {static_cast<uint64_t>(now / 5.0) + rng.NextBounded(3),
               static_cast<ChargerId>(rng.NextBounded(40))};
      }
      const AvailabilityForecast value{now, now};
      const std::vector<AvailabilityForecast> got =
          ResolveSlots(&batch_store, keys, now, value, &batch_calls);
      for (size_t i = 0; i < keys.size(); ++i) {
        const AvailabilityForecast want =
            ResolveSlots(&single_store, {keys[i]}, now, value, &single_calls)
                .front();
        ASSERT_EQ(got[i].min, want.min) << "round " << round << " slot " << i;
      }
      ASSERT_EQ(batch_calls.load(), single_calls.load()) << "round " << round;
      ASSERT_EQ(batch_store.allocated_slots(), single_store.allocated_slots());
      ASSERT_EQ(batch_store.num_columns(), single_store.num_columns());
    }
    const CacheStats b = batch_store.stats(), s = single_store.stats();
    EXPECT_EQ(b.hits, s.hits);
    EXPECT_EQ(b.misses, s.misses);
    EXPECT_EQ(b.expirations, s.expirations);
    if (budget == 220u) {
      EXPECT_GT(s.expirations, 0u);
    }
  }
}

// Workers hammer a store far over its slot budget, so evictions, round
// breaks and waits on other calls' claims all interleave. Every call must
// finish (bounded wait, so a lost wakeup or a miscounted round fails
// instead of hanging), answer each slot with its key's value, and count
// each lookup once: hits + misses = lookups, upstream calls = misses.
TEST(ForecastColumnsTest, ConcurrentCallsOverTheBudgetFinishAndCountOnce) {
  ForecastColumns<AvailabilityForecast> store(5.0, 300);
  constexpr int kThreads = 8;
  constexpr int kCalls = 300;
  std::atomic<uint64_t> lookups{0}, fetches{0}, wrong{0};
  std::atomic<int> done{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(500 + t);
      std::vector<SlotKey> keys;
      std::vector<AvailabilityForecast> out;
      std::vector<SlotClaim> claims;
      for (int call = 0; call < kCalls; ++call) {
        const SimTime now = call * 0.5 + rng.NextDouble(0.0, 0.5);
        keys.resize(50 + rng.NextBounded(100));
        for (SlotKey& key : keys) {
          key = {static_cast<uint64_t>(now / 4.0) + rng.NextBounded(4),
                 static_cast<ChargerId>(rng.NextBounded(100))};
        }
        out.resize(keys.size());
        claims.resize(keys.size());
        store.Resolve(
            ColumnKey{}, now, claims, out.data(),
            [&](size_t i) { return keys[i]; },
            [&](size_t i, uint64_t) -> Result<AvailabilityForecast> {
              fetches.fetch_add(1);
              return AvailabilityForecast{static_cast<double>(keys[i].id),
                                          0.0};
            },
            [](size_t, const AvailabilityForecast* stale) {
              return stale ? *stale : AvailabilityForecast{};
            });
        for (size_t i = 0; i < keys.size(); ++i) {
          if (out[i].min != static_cast<double>(keys[i].id)) ++wrong;
        }
        lookups.fetch_add(keys.size());
      }
      ++done;
    });
  }
  for (int i = 0; i < 3000 && done.load() < kThreads; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done.load() < kThreads) {
    ADD_FAILURE() << "calls did not finish: " << done.load() << "/"
                  << kThreads << " workers done";
    std::_Exit(1);  // the stuck workers cannot be joined
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0u);
  const CacheStats stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.misses, fetches.load());
}

/// Races two Resolve calls on `keys` at `now`. The first call holds its
/// first fetch until the second sleeps on its claims (bounded, so a broken
/// protocol fails instead of hanging). Returns both calls' answers.
std::pair<std::vector<AvailabilityForecast>, std::vector<AvailabilityForecast>>
RaceTwoCalls(ForecastColumns<AvailabilityForecast>* store,
             const std::vector<SlotKey>& keys, SimTime now,
             std::atomic<int>* calls, AvailabilityForecast first_value,
             bool first_fails, AvailabilityForecast second_value,
             bool second_fails) {
  std::atomic<bool> first_fetching{false};
  std::vector<AvailabilityForecast> first;
  std::thread claimer([&] {
    first = ResolveSlots(store, keys, now, first_value, calls, first_fails,
                         [&] {
                           if (first_fetching.exchange(true)) return;
                           for (int i = 0; i < 5000 && store->waiters() == 0;
                                ++i) {
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                           }
                         });
  });
  while (!first_fetching.load()) std::this_thread::yield();
  std::vector<AvailabilityForecast> second =
      ResolveSlots(store, keys, now, second_value, calls, second_fails);
  claimer.join();
  return {first, second};
}

// Two calls racing on the same absent slots: the second finds the first
// call's claims pending and waits for their publish instead of fetching.
TEST(ForecastColumnsTest, RacingBatchesFetchEachSlotOnce) {
  ForecastColumns<AvailabilityForecast> store(60.0, 1 << 16);
  std::vector<SlotKey> keys;
  for (ChargerId id = 0; id < 40; ++id) keys.push_back({id % 2, id});
  std::atomic<int> calls{0};
  auto [first, second] = RaceTwoCalls(&store, keys, 5.0, &calls,
                                      {0.25, 0.75}, false, {0.5, 0.5}, false);
  EXPECT_EQ(calls.load(), static_cast<int>(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(first[i].min, 0.25);
    EXPECT_EQ(second[i].min, 0.25) << "slot " << i << " fetched twice";
  }
  const CacheStats stats = store.stats();
  EXPECT_EQ(stats.misses, keys.size());
  EXPECT_EQ(stats.hits, keys.size());
}

// A claimed fetch that fails releases its slot: the waiting call then
// claims it itself and refetches — or, when its fetch fails as well,
// degrades to the stale value the slot still holds.
TEST(ForecastColumnsTest, FailedClaimReleasesSlotToWaiter) {
  for (bool waiter_fails : {false, true}) {
    ForecastColumns<AvailabilityForecast> store(1.0, 1 << 16);
    std::atomic<int> calls{0};
    const std::vector<SlotKey> keys = {{0, 3}, {0, 4}};
    ResolveSlots(&store, keys, 0.0, {0.1, 0.1}, &calls);  // stale at t=5
    auto [first, second] = RaceTwoCalls(&store, keys, 5.0, &calls, {}, true,
                                        {0.9, 0.9}, waiter_fails);
    // Two warm-up fetches, two failed claims, two refetches by the waiter.
    EXPECT_EQ(calls.load(), 6);
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(first[i].min, 0.1);  // degraded to the stale value
      EXPECT_EQ(second[i].min, waiter_fails ? 0.1 : 0.9);
    }
    // The waiter's refetch was published only when it succeeded.
    ResolveSlots(&store, keys, 5.0, {0.5, 0.5}, &calls, /*fail=*/true);
    EXPECT_EQ(calls.load(), waiter_fails ? 8 : 6);
  }
}

TEST(ForecastColumnsTest, ConcurrentBatchesFillOverlappingColumns) {
  // Four workers resolve overlapping candidate sets against one shared
  // server; every answer must equal the upstream's pure response, and no
  // slot is ever fetched twice within its TTL.
  World& w = SharedWorld();
  Environment* env = w.env.get();
  InformationServer shared(env->energy.get(), env->availability.get(),
                           env->congestion.get());
  const SimTime now = 12.0 * kSecondsPerHour;
  const std::vector<SimTime> bucket_targets = {now, now + 900.0,
                                               now + 1800.0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      ForecastBatch out;
      BatchInputs in;
      for (int round = 0; round < 30; ++round) {
        in.chargers.clear();
        in.targets.clear();
        for (int i = 0; i < 50; ++i) {
          in.chargers.push_back(
              &env->chargers[rng.NextBounded(env->chargers.size())]);
          in.targets.push_back(bucket_targets[rng.NextBounded(3)]);
        }
        shared.GetForecastBatch(in.chargers, in.targets, now, 3600.0, &out);
        for (size_t i = 0; i < in.chargers.size(); ++i) {
          const AvailabilityForecast a =
              env->availability->Forecast(*in.chargers[i], now,
                                          in.targets[i]);
          if (!SameBits(a.min, out.availability[i].min) ||
              !SameBits(a.max, out.availability[i].max)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const EisCallStats stats = shared.Stats();
  // Exactly one upstream call per distinct (charger, bucket) slot: the
  // workers' candidate streams are seeded, so replay them to count.
  std::set<std::pair<ChargerId, size_t>> slots;
  for (int t = 0; t < 4; ++t) {
    Rng rng(100 + t);
    for (int i = 0; i < 30 * 50; ++i) {
      const ChargerId id = env->chargers[rng.NextBounded(
          env->chargers.size())].id;
      slots.emplace(id, rng.NextBounded(3));
    }
  }
  EXPECT_EQ(stats.availability_api_calls, slots.size());
  EXPECT_EQ(stats.availability_cache.hits + stats.availability_cache.misses,
            4u * 30u * 50u);
  EXPECT_EQ(stats.availability_cache.misses, stats.availability_api_calls);
}

}  // namespace
}  // namespace ecocharge
