// Differential tests of the columnar EC estimation path: the batch
// (EcEstimator::EstimateIntervalsBatch over InformationServer::
// GetForecastBatch) against the per-candidate oracle (EstimateIntervals over
// the single-charger Get* calls), bit for bit, over randomized candidate
// sets, TTL expiry, world-revision bumps, the resilient decorator, and
// concurrent batches filling overlapping columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>
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

TEST(ForecastColumnsTest, HugeChargerIdDoesNotAllocateInProportion) {
  ForecastColumns<AvailabilityForecast> store(60.0, 1 << 16);
  {
    ForecastColumns<AvailabilityForecast>::Batch batch(&store, ColumnKey{},
                                                       0.0);
    batch.Put(3, 4000000000u, AvailabilityForecast{0.1, 0.2});
    batch.Put(3, 7, AvailabilityForecast{0.3, 0.4});
    AvailabilityForecast got;
    EXPECT_EQ(batch.Find(3, 4000000000u, &got), SlotProbe::kFresh);
    EXPECT_EQ(got.min, 0.1);
    EXPECT_EQ(batch.Find(3, 7, &got), SlotProbe::kFresh);
    EXPECT_EQ(got.max, 0.4);
    EXPECT_EQ(batch.Find(3, 8, &got), SlotProbe::kAbsent);
  }
  EXPECT_EQ(store.allocated_slots(), 8u + 1u);  // dense 0..7 + one sparse
}

TEST(ForecastColumnsTest, SlotBudgetSweepsThenClears) {
  ForecastColumns<AvailabilityForecast> store(10.0, 100);
  auto fill = [&store](uint64_t bucket, SimTime now) {
    ForecastColumns<AvailabilityForecast>::Batch batch(&store, ColumnKey{},
                                                       now);
    for (ChargerId id = 0; id < 50; ++id) {
      batch.Put(bucket, id, AvailabilityForecast{});
    }
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
  // One upstream call per distinct (charger, bucket) slot at most.
  EXPECT_LE(stats.availability_api_calls, 3 * env->chargers.size());
  EXPECT_EQ(stats.availability_cache.hits + stats.availability_cache.misses,
            4u * 30u * 50u);
  EXPECT_EQ(stats.availability_cache.misses, stats.availability_api_calls);
}

}  // namespace
}  // namespace ecocharge
