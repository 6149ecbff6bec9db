// Customization subsystem: bitwise parity of the serial and level-parallel
// runs of the pull kernel against the reference push sweep, also on a
// hand-made index that is not closed under triangles; shared-cache dedup
// under concurrent workers (the TSan hammer — scripts/check.sh chpar runs
// this suite under -fsanitize=thread); the batch's Find-only plane lookup
// (a miss builds nothing, runs Dijkstra and never waits on a running
// build; a published plane serves the same bits); the cache as the one
// plane source of every CH consumer; and end-to-end Offering Table parity
// across derouting backends and sweep strategies. Parity here means
// memcmp-identical doubles, the same contract ch_test.cc holds ChQuery to.

#include "ch/ch_customize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ch/ch_index.h"
#include "ch/ch_query.h"
#include "ch/contraction.h"
#include "core/offering_service.h"
#include "graph/generators.h"
#include "graph/road_network.h"
#include "tests/test_util.h"
#include "traffic/congestion.h"
#include "traffic/derouting.h"

namespace ecocharge {

/// Holds the cache's build mutex the way a running sweep does.
class ChCustomizationCacheTestPeer {
 public:
  static std::mutex& build_mu(ChCustomizationCache& cache) {
    return cache.build_mu_;
  }
};

namespace {

using testing_util::CongestedWeights;
using testing_util::EstimatesSameBits;
using testing_util::SmallRgg;

::testing::AssertionResult PlanesSameBits(const ChCustomization& a,
                                          const ChCustomization& b) {
  if (a.cw_up.size() != b.cw_up.size() ||
      a.cw_down.size() != b.cw_down.size()) {
    return ::testing::AssertionFailure() << "plane sizes differ";
  }
  if (std::memcmp(a.cw_up.data(), b.cw_up.data(),
                  a.cw_up.size() * sizeof(double)) != 0 ||
      std::memcmp(a.cw_down.data(), b.cw_down.data(),
                  a.cw_down.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "arc costs differ";
  }
  if (std::memcmp(a.via_up.data(), b.via_up.data(),
                  a.via_up.size() * sizeof(NodeId)) != 0 ||
      std::memcmp(a.via_down.data(), b.via_down.data(),
                  a.via_down.size() * sizeof(NodeId)) != 0) {
    return ::testing::AssertionFailure() << "via assignments differ";
  }
  return ::testing::AssertionSuccess();
}

/// Every strategy — one worker (threads 0 and 1), 2 and 4 level-parallel
/// workers — against the reference push sweep, over a sequence of
/// congestion buckets.
void ExpectStrategiesMatchReference(const ChIndex& ch, uint64_t seed) {
  CongestionModel congestion(seed);
  ChCustomizer serial0(ch, 0);
  ChCustomizer serial1(ch, 1);
  ChCustomizer par2(ch, 2);
  ChCustomizer par4(ch, 4);
  for (double hour : {2.0, 8.5, 13.0, 17.5}) {
    const ChClassWeights w = CongestedWeights(congestion, hour * 3600.0);
    auto want = ChCustomizeReference(ch, w);
    EXPECT_TRUE(PlanesSameBits(*want, *serial0.Customize(w))) << "0 threads";
    EXPECT_TRUE(PlanesSameBits(*want, *serial1.Customize(w))) << "1 thread";
    EXPECT_TRUE(PlanesSameBits(*want, *par2.Customize(w))) << "2 threads";
    EXPECT_TRUE(PlanesSameBits(*want, *par4.Customize(w))) << "4 threads";
  }
}

TEST(ChCustomizerTest, SerialParallelBitIdentical) {
  for (uint64_t seed : {3u, 17u}) {
    auto network = SmallRgg(seed);
    auto ch = BuildChIndex(*network).MoveValueUnsafe();
    ExpectStrategiesMatchReference(*ch, seed);
  }
  // A 30x30 grid world: nested dissection gives it near-clique top
  // separators, where the rank-sorted suffixes are longest.
  auto grid =
      GenerateNetwork("type=grid;nx=30;ny=30;spacing=500;seed=11")
          .MoveValueUnsafe();
  auto ch = BuildChIndex(*grid).MoveValueUnsafe();
  ExpectStrategiesMatchReference(*ch, 11);
}

/// Hand-made index over 5 nodes (rank = id) that is NOT closed under
/// triangles: apex 0 has legs 1 -> 0 and 0 -> 4 but no arc 1 -> 4 (a
/// missing up target) and legs 3 -> 0 and 0 -> 1 but no arc 3 -> 1 (a
/// missing down target); apex 1 has legs 4 -> 1 and 1 -> 3 but no 4 -> 3.
/// FromViews accepts it (closure is not checked), so the kernel must skip
/// the missing enclosing arcs. Parallel records exercise the run minima on
/// both legs and on a target run.
struct NonClosedIndex {
  std::vector<uint32_t> rank = {0, 1, 2, 3, 4};
  // Up rows (arc v -> far): 0 -> {1, 2, 2, 3, 4}, 1 -> {2, 2, 3}, 2 -> {3}.
  std::vector<uint32_t> up_offsets = {0, 5, 8, 9, 9, 9};
  std::vector<ChArc> up_arcs = {
      Orig(1, 0, 0, 100.0), Orig(2, 1, 1, 300.0), Orig(2, 2, 2, 250.0),
      Orig(3, 3, 0, 200.0), Orig(4, 4, 0, 400.0), Orig(2, 5, 0, 900.0),
      Orig(2, 6, 2, 950.0), Shortcut(3),          Orig(3, 7, 2, 120.0)};
  // Down rows (arc far -> v): 0 <- {1, 2, 3, 3}, 1 <- {2, 4}, 2 <- {3, 4}.
  std::vector<uint32_t> down_offsets = {0, 4, 6, 8, 8, 8};
  std::vector<ChArc> down_arcs = {
      Orig(1, 8, 0, 110.0),  Orig(2, 9, 1, 70.0), Orig(3, 10, 1, 500.0),
      Orig(3, 11, 0, 450.0), Shortcut(2),         Orig(4, 12, 2, 80.0),
      Orig(3, 13, 1, 60.0),  Shortcut(4)};

  static ChArc Orig(NodeId far, EdgeId e, int rc, double len) {
    ChArc a;
    a.node = far;
    a.orig = e;
    a.len[rc] = len;
    return a;
  }
  static ChArc Shortcut(NodeId far) {
    ChArc a;
    a.node = far;
    return a;
  }

  Result<std::shared_ptr<ChIndex>> Build() const {
    ChIndex::Views v;
    v.rank = rank;
    v.up_offsets = up_offsets;
    v.up_arcs = up_arcs;
    v.down_offsets = down_offsets;
    v.down_arcs = down_arcs;
    return ChIndex::FromViews(std::move(v), 14);
  }
};

TEST(ChCustomizerTest, NonClosedIndexSkipsMissingTargets) {
  const NonClosedIndex data;
  auto built = data.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const ChIndex& ch = **built;

  const ChClassWeights base_w{{1.0, 1.5, 2.0}};
  ChClassWeights delta_w = base_w;
  delta_w.w[2] = 0.5;
  for (const ChClassWeights& w : {base_w, delta_w}) {
    auto want = ChCustomizeReference(ch, w);
    for (int threads : {0, 1, 2, 4}) {
      ChCustomizer customizer(ch, threads);
      EXPECT_TRUE(PlanesSameBits(*want, *customizer.Customize(w)))
          << threads << " threads";
    }
  }
  // The closed triangles still price: shortcuts 1 -> 3 and 2 -> 1 via
  // apex 0, shortcut 4 -> 2 via apex 1, and the head of the parallel run
  // 1 -> 2 improves via apex 0 while its second record keeps its own cost.
  auto want = ChCustomizeReference(ch, base_w);
  EXPECT_EQ(want->via_up[7], 0u);
  EXPECT_EQ(want->cw_up[7], 110.0 + 200.0);
  EXPECT_EQ(want->via_down[4], 0u);
  EXPECT_EQ(want->via_down[7], 1u);
  EXPECT_EQ(want->via_up[5], 0u);
  EXPECT_EQ(want->cw_up[5], 110.0 + 300.0 * 1.5);
  EXPECT_EQ(want->cw_up[6], 950.0 * 2.0);
}

TEST(ChCustomizerTest, FromViewsRejectsRankViolations) {
  NonClosedIndex duplicate;
  duplicate.rank = {0, 1, 1, 3, 4};
  EXPECT_FALSE(duplicate.Build().ok());
  NonClosedIndex inverted;
  inverted.rank = {0, 2, 1, 3, 4};  // 1 -> 2 would point down the order
  EXPECT_FALSE(inverted.Build().ok());
}

TEST(ChCustomizationCacheTest, ConcurrentWorkersDedupAcrossBucketBoundaries) {
  auto network = SmallRgg(23, 200);
  auto ch = BuildChIndex(*network).MoveValueUnsafe();
  CongestionModel congestion(23);

  // Planes for 6 buckets, hammered by 4 workers that cross bucket
  // boundaries in different orders, against a cache that can only hold 4 —
  // eviction churn while other workers still hold evicted planes is the
  // lifetime race TSan watches for.
  std::vector<ChClassWeights> buckets;
  for (int j = 0; j < 6; ++j) {
    buckets.push_back(CongestedWeights(congestion, (6.0 + j) * 3600.0));
  }
  ChCustomizationCache cache(*ch, /*threads=*/0, /*max_planes=*/4);
  ChCustomizer reference(*ch, 0);

  constexpr size_t kWorkers = 4;
  std::atomic<uint64_t> built_here{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (size_t wkr = 0; wkr < kWorkers; ++wkr) {
    workers.emplace_back([&, wkr] {
      for (size_t round = 0; round < 3; ++round) {
        for (size_t j = 0; j < buckets.size(); ++j) {
          // Different traversal order per worker: forward, backward, ...
          const size_t idx =
              wkr % 2 == 0 ? j : buckets.size() - 1 - j;
          bool built = false;
          auto plane = cache.Get(buckets[idx], &built);
          if (built) built_here.fetch_add(1);
          if (plane == nullptr ||
              plane->weights.w[0] != buckets[idx].w[0]) {
            failed.store(true);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_FALSE(failed.load());

  // Eviction (capacity 4 < 6 buckets, opposed traversal orders) thrashes
  // by design — the accounting must still balance: per-call `built` flags
  // sum to exactly the sweeps run, every request is a hit or a miss, and
  // capacity holds.
  const uint64_t requests = kWorkers * 3 * buckets.size();
  EXPECT_EQ(cache.builds(), built_here.load());
  EXPECT_EQ(cache.hits() + cache.misses(), requests);
  EXPECT_LE(cache.size(), 4u);

  // Cached planes are real customizations, not stale table slots.
  for (const ChClassWeights& w : buckets) {
    EXPECT_TRUE(PlanesSameBits(*reference.Customize(w), *cache.Get(w)));
  }
}

TEST(ChCustomizationCacheTest, DedupCollapsesPerWorkerSweepsWithoutEviction) {
  auto network = SmallRgg(29, 200);
  auto ch = BuildChIndex(*network).MoveValueUnsafe();
  CongestionModel congestion(29);
  std::vector<ChClassWeights> buckets;
  for (int j = 0; j < 4; ++j) {
    buckets.push_back(CongestedWeights(congestion, (7.0 + 3 * j) * 3600.0));
  }
  // Default capacity (64) — no eviction, so however many workers race,
  // each bucket costs exactly one sweep: the (N-1)/N dedup contract the
  // bench gate (bench_micro_ch_customize) holds as a floor.
  ChCustomizationCache cache(*ch, /*threads=*/0);
  constexpr size_t kWorkers = 6;
  std::vector<std::thread> workers;
  for (size_t wkr = 0; wkr < kWorkers; ++wkr) {
    workers.emplace_back([&] {
      for (const ChClassWeights& w : buckets) {
        if (cache.Get(w) == nullptr) std::abort();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(cache.builds(), buckets.size());
  EXPECT_EQ(cache.size(), buckets.size());
  EXPECT_EQ(cache.hits() + cache.misses(), kWorkers * buckets.size());
}

std::unique_ptr<Environment> BackendEnvironment(DeroutingBackend backend,
                                                int ch_threads) {
  EnvironmentOptions opts;
  opts.kind = DatasetKind::kOldenburg;
  opts.dataset_scale = 0.003;
  opts.num_chargers = 40;
  opts.max_derouting_m = 60000.0;
  opts.seed = 42;
  opts.derouting_backend = backend;
  opts.ch_threads = ch_threads;
  auto result = MakeEnvironment(opts);
  EXPECT_TRUE(result.ok());
  return result.ok() ? std::move(result).MoveValueUnsafe() : nullptr;
}

TEST(ChCustomizeParityTest, OfferingTablesBitIdenticalAcrossStrategies) {
  // Exact backend vs CH with serial and 4-thread sweeps behind the shared
  // plane cache. One Offering Table contract: same bits everywhere.
  auto exact = BackendEnvironment(DeroutingBackend::kExact, 0);
  auto ch_serial = BackendEnvironment(DeroutingBackend::kCh, 0);
  auto ch_par = BackendEnvironment(DeroutingBackend::kCh, 4);
  ASSERT_NE(exact, nullptr);
  ASSERT_NE(ch_serial, nullptr);
  ASSERT_NE(ch_par, nullptr);

  auto states = testing_util::TinyWorkload(*exact, 5);
  ASSERT_FALSE(states.empty());

  auto rank = [](Environment& env, const VehicleState& state) {
    OfferingService service(env.estimator.get(), env.charger_index.get(),
                            ScoreWeights::AWE(), EcoChargeOptions{});
    OfferingTable table;
    service.RankFresh(state, 5, &table);
    return table;
  };
  // Price every state's plane first, so each CH rank below runs on the
  // hierarchy (a batch only reads published planes).
  for (const VehicleState& state : states) {
    testing_util::WarmChPlane(*ch_serial, state.time);
    testing_util::WarmChPlane(*ch_par, state.time);
  }
  for (const VehicleState& state : states) {
    const OfferingTable want = rank(*exact, state);
    EXPECT_TRUE(testing_util::TablesBitIdentical(want, rank(*ch_serial, state)))
        << "ch serial";
    EXPECT_TRUE(testing_util::TablesBitIdentical(want, rank(*ch_par, state)))
        << "ch 4-thread";
  }
  for (const Environment* env : {ch_serial.get(), ch_par.get()}) {
    EXPECT_GT(env->ch_cache->hits(), 0u);
    EXPECT_EQ(env->ch_cache->deferred(), 0u);
  }
}

TEST(ChCustomizationCacheTest, OnePlaneSourceForEveryChConsumer) {
  // Two estimators share env->ch_cache. Every other state's plane is priced
  // through Get once per estimator, as two workers would; then both run the
  // batched exact derouting over every state. Each priced weight vector is
  // swept exactly once, and a batch never builds: it reads a priced plane
  // or defers to Dijkstra, with the Dijkstra backend's bits either way.
  auto env = BackendEnvironment(DeroutingBackend::kCh, 0);
  ASSERT_NE(env, nullptr);
  auto states = testing_util::TinyWorkload(*env, 6);
  ASSERT_GE(states.size(), 2u);
  EcEstimator second(env->dataset.network, &env->chargers, env->energy.get(),
                     env->availability.get(), env->congestion.get(),
                     env->estimator->options());
  const std::vector<EcEstimator*> estimators = {env->estimator.get(),
                                                &second};
  ChCustomizationCache& cache = *env->ch_cache;

  std::vector<ChClassWeights> priced;
  const auto is_priced = [&](const ChClassWeights& w) {
    for (const ChClassWeights& seen : priced) {
      if (std::memcmp(seen.w, w.w, sizeof(w.w)) == 0) return true;
    }
    return false;
  };
  for (size_t s = 0; s < states.size(); s += 2) {
    const ChClassWeights w = CongestedWeights(*env->congestion, states[s].time);
    for (size_t e = 0; e < estimators.size(); ++e) cache.Get(w);
    if (!is_priced(w)) priced.push_back(w);
  }
  EXPECT_EQ(cache.builds(), priced.size());

  std::vector<ChargerRef> refs;
  for (size_t c = 0; c < env->chargers.size(); c += 9) {
    refs.push_back(&env->chargers[c]);
  }
  DeroutingService oracle(env->dataset.network, env->congestion.get());
  DeroutingBatchScratch scratch, oracle_scratch;
  std::vector<DeroutingEstimate> got, want;
  uint64_t deferred = 0;
  for (const VehicleState& state : states) {
    const bool published =
        is_priced(CongestedWeights(*env->congestion, state.time));
    for (EcEstimator* estimator : estimators) {
      const DeroutingQuery query = estimator->MakeDeroutingQuery(state);
      estimator->derouting_service().ExactBatch(query, refs, &scratch, &got);
      oracle.ExactBatch(query, refs, &oracle_scratch, &want);
      EXPECT_TRUE(EstimatesSameBits(want, got)) << "t=" << state.time;
      if (!published) ++deferred;
    }
  }
  EXPECT_EQ(cache.builds(), priced.size());
  EXPECT_EQ(cache.deferred(), deferred);
  EXPECT_GT(deferred, 0u);
  // The priced states' batches read their planes from the cache.
  EXPECT_GE(cache.hits(), priced.size() * (2 * estimators.size() - 1));
}

TEST(ChCustomizationCacheTest, MissRunsDijkstraUntilAPlaneIsPublished) {
  auto network = SmallRgg(31);
  auto ch = BuildChIndex(*network).MoveValueUnsafe();
  CongestionModel congestion(31);
  ChCustomizationCache cache(*ch);
  DeroutingService oracle(network, &congestion);
  DeroutingService hierarchy(network, &congestion);
  hierarchy.set_ch(&cache);
  const testing_util::ChargerBatch batch =
      testing_util::MakeChargerBatch(*network, 8.25 * 3600);

  DeroutingBatchScratch oracle_scratch, ch_scratch;
  std::vector<DeroutingEstimate> want, got;
  oracle.ExactBatch(batch.query, batch.refs, &oracle_scratch, &want);

  // A miss builds nothing, the first time or any later one, and the batch
  // runs the Dijkstra sweeps (the backward sweep is started, then resumed).
  for (uint64_t miss = 1; miss <= 2; ++miss) {
    hierarchy.ExactBatch(batch.query, batch.refs, &ch_scratch, &got);
    EXPECT_EQ(cache.builds(), 0u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.deferred(), miss);
    EXPECT_EQ(hierarchy.backward_sweep_starts() + hierarchy.warm_start_hits(),
              miss);
    EXPECT_TRUE(EstimatesSameBits(want, got)) << "miss " << miss;
  }

  // Once the plane is published the hierarchy serves (no further Dijkstra
  // sweep) with the same bits.
  cache.Get(CongestedWeights(congestion, batch.query.now));
  hierarchy.ExactBatch(batch.query, batch.refs, &ch_scratch, &got);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.deferred(), 2u);
  EXPECT_EQ(hierarchy.backward_sweep_starts() + hierarchy.warm_start_hits(),
            2u);
  EXPECT_TRUE(EstimatesSameBits(want, got));
}

TEST(ChCustomizationCacheTest, LookupsNeverWaitOnARunningBuild) {
  // While a sweep holds the build mutex, N workers' batches miss their
  // never-seen plane concurrently: every one is answered by Dijkstra while
  // the mutex is still held, and none builds. Correct code finishes in
  // milliseconds; the deadline only bounds how long a waiting worker can
  // hang the test before it fails.
  auto network = SmallRgg(37);
  auto ch = BuildChIndex(*network).MoveValueUnsafe();
  CongestionModel congestion(37);
  ChCustomizationCache cache(*ch);
  const testing_util::ChargerBatch batch =
      testing_util::MakeChargerBatch(*network, 17.5 * 3600);
  DeroutingService oracle(network, &congestion);
  DeroutingBatchScratch oracle_scratch;
  std::vector<DeroutingEstimate> want;
  oracle.ExactBatch(batch.query, batch.refs, &oracle_scratch, &want);

  constexpr size_t kWorkers = 4;
  std::vector<std::unique_ptr<DeroutingService>> services;
  for (size_t i = 0; i < kWorkers; ++i) {
    services.push_back(std::make_unique<DeroutingService>(network, &congestion));
    services.back()->set_ch(&cache);
  }
  std::vector<std::vector<DeroutingEstimate>> got(kWorkers);
  std::atomic<size_t> done{0};
  std::unique_lock<std::mutex> sweep(
      ChCustomizationCacheTestPeer::build_mu(cache));
  std::vector<std::thread> workers;
  for (size_t i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      DeroutingBatchScratch scratch;
      services[i]->ExactBatch(batch.query, batch.refs, &scratch, &got[i]);
      done.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (done.load() < kWorkers && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), kWorkers) << "a batch waited on the running build";
  sweep.unlock();
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(cache.builds(), 0u);
  EXPECT_EQ(cache.deferred(), kWorkers);
  for (size_t i = 0; i < kWorkers; ++i) {
    EXPECT_TRUE(EstimatesSameBits(want, got[i])) << "worker " << i;
  }
}

}  // namespace
}  // namespace ecocharge
