// QueryContext semantics: a context carries capacity, never results — so
// reusing one across queries must be invisible in the output — and once
// warm, the ranking path (exact-derouting refinement included) performs
// zero heap allocations per offering-table generation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/baselines.h"
#include "core/ecocharge.h"
#include "resilience/resilient_information_server.h"
#include "server/corridor_cache.h"
#include "tests/test_util.h"

// Sanitizers interpose on the allocator; counting through a user-defined
// operator new both double-counts and fights their bookkeeping, so the
// allocation-regression check only runs in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ECOCHARGE_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ECOCHARGE_COUNT_ALLOCS 0
#else
#define ECOCHARGE_COUNT_ALLOCS 1
#endif
#else
#define ECOCHARGE_COUNT_ALLOCS 1
#endif

#if ECOCHARGE_COUNT_ALLOCS

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

#endif  // ECOCHARGE_COUNT_ALLOCS

namespace ecocharge {
namespace {

using testing_util::TablesBitIdentical;

struct SharedWorld {
  std::unique_ptr<Environment> env;
  std::vector<VehicleState> states;
};

SharedWorld& World() {
  static SharedWorld world = [] {
    SharedWorld w;
    w.env = testing_util::TinyEnvironment(80);
    EXPECT_NE(w.env, nullptr);
    w.states = testing_util::TinyWorkload(*w.env, 8);
    EXPECT_FALSE(w.states.empty());
    return w;
  }();
  return world;
}

TEST(QueryContextTest, ReusedContextMatchesFreshOver100Queries) {
  SharedWorld& w = World();
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  // Two rankers with identical configuration so their Dynamic Caches see
  // the same query sequence; one gets a fresh context per query, the
  // other reuses a single context (and output table) for all 100.
  EcoChargeRanker fresh_ranker(w.env->estimator.get(),
                               w.env->charger_index.get(),
                               ScoreWeights::AWE(), opts);
  EcoChargeRanker reused_ranker(w.env->estimator.get(),
                                w.env->charger_index.get(),
                                ScoreWeights::AWE(), opts);
  QueryContext reused_ctx;
  OfferingTable reused_table;
  for (int i = 0; i < 100; ++i) {
    const VehicleState& state = w.states[i % w.states.size()];
    QueryContext fresh_ctx;
    OfferingTable fresh_table;
    fresh_ranker.RankInto(state, 3, fresh_ctx, &fresh_table);
    reused_ranker.RankInto(state, 3, reused_ctx, &reused_table);
    EXPECT_TRUE(TablesBitIdentical(reused_table, fresh_table))
        << "query " << i;
  }
  // Both hit/miss sequences must also agree, or the comparison above
  // silently compared two different code paths.
  EXPECT_EQ(fresh_ranker.cache().hits(), reused_ranker.cache().hits());
  EXPECT_GT(reused_ranker.cache().hits(), 0u);
}

TEST(QueryContextTest, ReuseIsInvisibleAcrossRankers) {
  // The same context threaded through different ranker types must not leak
  // state between them.
  SharedWorld& w = World();
  QuadtreeRanker nearest(w.env->estimator.get(), w.env->charger_index.get(),
                         ScoreWeights::AWE());
  RandomRanker random(w.env->estimator.get(), w.env->charger_index.get(),
                      20000.0, /*seed=*/7);
  RandomRanker random_fresh(w.env->estimator.get(),
                            w.env->charger_index.get(), 20000.0, /*seed=*/7);
  QueryContext shared_ctx;
  OfferingTable table;
  for (const VehicleState& state : w.states) {
    nearest.RankInto(state, 3, shared_ctx, &table);  // dirty the buffers
    random.RankInto(state, 3, shared_ctx, &table);
    EXPECT_TRUE(TablesBitIdentical(table, random_fresh.Rank(state, 3)));
  }
}

TEST(QueryContextTest, ConvenienceRankMatchesRankInto) {
  SharedWorld& w = World();
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  EcoChargeRanker a(w.env->estimator.get(), w.env->charger_index.get(),
                    ScoreWeights::AWE(), opts);
  EcoChargeRanker b(w.env->estimator.get(), w.env->charger_index.get(),
                    ScoreWeights::AWE(), opts);
  QueryContext ctx;
  OfferingTable table;
  for (const VehicleState& state : w.states) {
    b.RankInto(state, 3, ctx, &table);
    EXPECT_TRUE(TablesBitIdentical(a.Rank(state, 3), table));
  }
}

#if ECOCHARGE_COUNT_ALLOCS

TEST(QueryContextTest, SteadyStateEstimatedPathDoesNotAllocate) {
  SharedWorld& w = World();
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  opts.q_distance_m = 0.0;  // full regeneration every query
  // Estimated-only path: no network searches at all.
  opts.refine_exact_derouting = false;
  EcoChargeRanker eco(w.env->estimator.get(), w.env->charger_index.get(),
                      ScoreWeights::AWE(), opts);
  QueryContext ctx;
  OfferingTable table;
  // Warm every buffer (context, cache storage, EIS caches) to the
  // workload's high-water mark.
  for (int pass = 0; pass < 3; ++pass) {
    for (const VehicleState& state : w.states) {
      eco.RankInto(state, 3, ctx, &table);
    }
  }
  uint64_t before = g_allocations.load();
  for (const VehicleState& state : w.states) {
    eco.RankInto(state, 3, ctx, &table);
  }
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
}

TEST(QueryContextTest, SteadyStateExactRefinementDoesNotAllocate) {
  // The exact derouting refinement used to be the documented exception to
  // the zero-allocation claim (it ran per-candidate Dijkstra). The sweep
  // workspaces and the batch scratch are persistent now, so the claim
  // covers refinement too.
  SharedWorld& w = World();
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  opts.q_distance_m = 0.0;  // full regeneration every query
  opts.refine_exact_derouting = true;
  EcoChargeRanker eco(w.env->estimator.get(), w.env->charger_index.get(),
                      ScoreWeights::AWE(), opts);
  QueryContext ctx;
  OfferingTable table;
  for (int pass = 0; pass < 3; ++pass) {
    for (const VehicleState& state : w.states) {
      eco.RankInto(state, 3, ctx, &table);
    }
  }
  uint64_t before = g_allocations.load();
  for (const VehicleState& state : w.states) {
    eco.RankInto(state, 3, ctx, &table);
  }
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
}

TEST(QueryContextTest, SteadyStateHoldsInBothSimdModes) {
  // The SoA score lanes live inside the context (plain std::vector, so
  // this file's counting operator new sees them): after warm-up neither
  // columnar estimation (use_simd) nor the per-candidate oracle may
  // allocate per query.
  SharedWorld& w = World();
  for (bool use_simd : {true, false}) {
    EcoChargeOptions opts;
    opts.radius_m = 20000.0;
    opts.q_distance_m = 0.0;  // full regeneration every query
    opts.use_simd = use_simd;
    EcoChargeRanker eco(w.env->estimator.get(), w.env->charger_index.get(),
                        ScoreWeights::AWE(), opts);
    QueryContext ctx;
    OfferingTable table;
    for (int pass = 0; pass < 3; ++pass) {
      for (const VehicleState& state : w.states) {
        eco.RankInto(state, 3, ctx, &table);
      }
    }
    uint64_t before = g_allocations.load();
    for (const VehicleState& state : w.states) {
      eco.RankInto(state, 3, ctx, &table);
    }
    uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u) << "use_simd=" << use_simd;
  }
}

TEST(QueryContextTest, SteadyStateCacheHitPathDoesNotAllocate) {
  SharedWorld& w = World();
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  opts.q_distance_m = 1e9;  // every repeat query is a cache hit
  opts.cache_ttl_s = 1e12;
  EcoChargeRanker eco(w.env->estimator.get(), w.env->charger_index.get(),
                      ScoreWeights::AWE(), opts);
  QueryContext ctx;
  OfferingTable table;
  const VehicleState& state = w.states.front();
  for (int i = 0; i < 3; ++i) eco.RankInto(state, 3, ctx, &table);
  uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) eco.RankInto(state, 3, ctx, &table);
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
}

TEST(QueryContextTest, SteadyStatePathWithMetricsDoesNotAllocate) {
  // Observability must not break the zero-allocation property: with phase
  // timers, pipeline counters, and estimator counters all attached (the
  // batched-refinement instrumentation included), the warm path still
  // performs zero heap allocations — metric registration is the cold
  // path, recording is relaxed atomics.
  SharedWorld& w = World();
  // Static, because the shared estimator keeps the counter handles after
  // this test ends; registration happens once, before any measurement.
  static obs::MetricsRegistry registry;
  w.env->estimator->AttachMetrics(&registry);
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  opts.q_distance_m = 0.0;  // full regeneration every query
  EcoChargeRanker eco(w.env->estimator.get(), w.env->charger_index.get(),
                      ScoreWeights::AWE(), opts);
  eco.AttachMetrics(&registry);
  QueryContext ctx;
  OfferingTable table;
  for (int pass = 0; pass < 3; ++pass) {
    for (const VehicleState& state : w.states) {
      eco.RankInto(state, 3, ctx, &table);
    }
  }
  uint64_t before = g_allocations.load();
  for (const VehicleState& state : w.states) {
    eco.RankInto(state, 3, ctx, &table);
  }
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  // The instrumentation actually fired while not allocating.
  EXPECT_GT(registry.FindHistogram("pipeline.filter_ns")->Snapshot().count,
            0u);
  EXPECT_GT(registry.FindCounter("pipeline.candidates_scored")->Value(), 0u);
  EXPECT_GT(registry.FindCounter("estimator.estimates.level")->Value(), 0u);
  EXPECT_GT(
      registry.FindHistogram("pipeline.batch_derouting_ns")->Snapshot().count,
      0u);
  EXPECT_GT(registry.FindCounter("pipeline.batch_targets")->Value(), 0u);
}

TEST(QueryContextTest, SteadyStateResilientEisPathDoesNotAllocate) {
  // The resilience decorator must not cost the warm path its
  // zero-allocation property: with a fault-free ResilientInformationServer
  // behind the estimator, warm queries are fresh cache hits that never
  // touch the retry/breaker machinery's failure paths.
  SharedWorld& w = World();
  resilience::ResilientInformationServer eis(w.env->energy.get(),
                                             w.env->availability.get(),
                                             w.env->congestion.get());
  EcEstimatorOptions est_opts;
  EcEstimator estimator(w.env->dataset.network, &w.env->chargers,
                        w.env->energy.get(), w.env->availability.get(),
                        w.env->congestion.get(), est_opts, &eis);
  EcoChargeOptions opts;
  opts.radius_m = 20000.0;
  opts.q_distance_m = 0.0;  // full regeneration every query
  opts.refine_exact_derouting = false;
  EcoChargeRanker eco(&estimator, w.env->charger_index.get(),
                      ScoreWeights::AWE(), opts);
  QueryContext ctx;
  OfferingTable table;
  for (int pass = 0; pass < 3; ++pass) {
    for (const VehicleState& state : w.states) {
      eco.RankInto(state, 3, ctx, &table);
    }
  }
  uint64_t before = g_allocations.load();
  for (const VehicleState& state : w.states) {
    eco.RankInto(state, 3, ctx, &table);
  }
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  // The decorated path really served the queries.
  EXPECT_GT(eis.Snapshot().availability_api_calls, 0u);
}

TEST(QueryContextTest, WarmColumnarBatchDoesNotAllocate) {
  // The columnar estimation step on its own, over the plain and the
  // resilient EIS: once the estimator's staging, the context's lanes and
  // the EIS columns are warm, a whole candidate set is estimated — band,
  // derouting, one forecast batch, L normalization — without allocating.
  SharedWorld& w = World();
  InformationServer plain(w.env->energy.get(), w.env->availability.get(),
                          w.env->congestion.get());
  resilience::ResilientInformationServer resilient(
      w.env->energy.get(), w.env->availability.get(),
      w.env->congestion.get());
  std::vector<ChargerId> ids(w.env->chargers.size());
  for (ChargerId id = 0; id < ids.size(); ++id) ids[id] = id;
  for (InformationServer* eis : {&plain, static_cast<InformationServer*>(
                                             &resilient)}) {
    EcEstimator estimator(w.env->dataset.network, &w.env->chargers,
                          w.env->energy.get(), w.env->availability.get(),
                          w.env->congestion.get(),
                          w.env->estimator->options(), eis);
    QueryContext ctx;
    for (int pass = 0; pass < 2; ++pass) {
      for (const VehicleState& state : w.states) {
        estimator.EstimateIntervalsBatch(state, ids, 0.0, &ctx);
      }
    }
    const EisCallStats warm = eis->Snapshot();
    uint64_t before = g_allocations.load();
    for (const VehicleState& state : w.states) {
      estimator.EstimateIntervalsBatch(state, ids, 0.0, &ctx);
    }
    uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(ctx.scored.size(), ids.size());
    // Every lookup of the measured pass was a column hit.
    EXPECT_EQ(eis->Snapshot().weather_api_calls, warm.weather_api_calls);
    EXPECT_EQ(eis->Snapshot().weather_cache.hits,
              warm.weather_cache.hits + w.states.size() * ids.size());
  }
}

TEST(QueryContextTest, SteadyStateCorridorHitPathDoesNotAllocate) {
  // Fleet corridor serving: once a corridor table is cached and the reply
  // buffer has reached capacity, a hit is a field copy plus an
  // assign-into-capacity of the entries — zero heap allocations. This is
  // the path every warm fleet request takes with --corridor-cache on.
  SharedWorld& w = World();
  CorridorCacheOptions options;
  CorridorCache cache(w.env->dataset.network.get(), options);
  EcoChargeOptions fresh;
  fresh.use_dynamic_cache = false;
  EcoChargeRanker ranker(w.env->estimator.get(), w.env->charger_index.get(),
                         ScoreWeights::AWE(), fresh);
  WorldRevisions revisions;
  const VehicleState& state = w.states.front();
  uint64_t key = cache.KeyFor(state, 3, revisions);
  OfferingTable table = ranker.Rank(cache.CanonicalState(state), 3);
  cache.Put(key, table, state.time);
  OfferingTable out;
  ASSERT_TRUE(cache.GetInto(key, state.time, &out));  // warm the buffer
  uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache.GetInto(key, state.time, &out));
  }
  uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(TablesBitIdentical(out, table));
}

#endif  // ECOCHARGE_COUNT_ALLOCS

}  // namespace
}  // namespace ecocharge
