// Customization subsystem: bitwise parity of the serial and level-parallel
// runs of the pull kernel against the reference push sweep, also on a
// hand-made index that is not closed under triangles; shared-cache dedup
// under concurrent workers (the TSan hammer — scripts/check.sh chpar runs
// this suite under -fsanitize=thread); the cache as the one plane source
// of every CH consumer; and end-to-end Offering Table / ETA-window parity
// across derouting backends and sweep strategies. Parity here means
// memcmp-identical doubles, the same contract ch_test.cc holds ChQuery to.

#include "ch/ch_customize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
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
namespace {

std::shared_ptr<RoadNetwork> SmallRgg(uint64_t seed, size_t nodes = 300) {
  RandomGeometricOptions opts;
  opts.num_nodes = nodes;
  opts.k_nearest = 3;
  opts.seed = seed;
  return MakeRandomGeometric(opts).MoveValueUnsafe();
}

ChClassWeights CongestedWeights(const CongestionModel& congestion,
                                SimTime tau) {
  ChClassWeights w;
  for (int c = 0; c < kChNumClasses; ++c) {
    w.w[c] = 1.0 / congestion.ActualSpeedFactor(static_cast<RoadClass>(c), tau);
  }
  return w;
}

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
                                                int ch_threads,
                                                double bucket_s = 0.0) {
  EnvironmentOptions opts;
  opts.kind = DatasetKind::kOldenburg;
  opts.dataset_scale = 0.003;
  opts.num_chargers = 40;
  opts.max_derouting_m = 60000.0;
  opts.seed = 42;
  opts.derouting_backend = backend;
  opts.ch_threads = ch_threads;
  opts.exact_derouting_bucket_s = bucket_s;
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
  for (const VehicleState& state : states) {
    const OfferingTable want = rank(*exact, state);
    EXPECT_TRUE(testing_util::TablesBitIdentical(want, rank(*ch_serial, state)))
        << "ch serial";
    EXPECT_TRUE(testing_util::TablesBitIdentical(want, rank(*ch_par, state)))
        << "ch 4-thread";
  }
}

TEST(ChCustomizeParityTest, EtaWindowMatchesPerBucketExact) {
  // One profile pass over k bucket planes must refold each lane to exactly
  // the eta_s a point query at that bucket's cost time computes.
  constexpr double kBucketS = 900.0;
  auto env = BackendEnvironment(DeroutingBackend::kCh, 0, kBucketS);
  ASSERT_NE(env, nullptr);
  auto states = testing_util::TinyWorkload(*env, 4);
  ASSERT_FALSE(states.empty());

  DeroutingService& derouting = env->estimator->derouting_service();
  constexpr size_t kLanes = 3;
  std::vector<double> etas;
  size_t windows = 0;
  for (const VehicleState& state : states) {
    const DeroutingQuery query = env->estimator->MakeDeroutingQuery(state);
    for (size_t c = 0; c < env->chargers.size(); c += 7) {
      const EvCharger& charger = env->chargers[c];
      if (!derouting.EtaWindow(query, charger, kLanes, &etas)) continue;
      ASSERT_EQ(etas.size(), kLanes);
      ++windows;
      for (size_t j = 0; j < kLanes; ++j) {
        DeroutingQuery at_bucket = query;
        at_bucket.now =
            std::floor(query.now / kBucketS) * kBucketS + j * kBucketS;
        const DeroutingEstimate want = derouting.Exact(at_bucket, charger);
        EXPECT_EQ(std::memcmp(&etas[j], &want.eta_s, sizeof(double)), 0)
            << "state t=" << state.time << " charger " << c << " lane " << j;
      }
    }
  }
  // The space builder may conservatively reject some endpoints; the test
  // is vacuous only if it rejected everything.
  EXPECT_GT(windows, 0u);
}

TEST(ChCustomizationCacheTest, OnePlaneSourceForEveryChConsumer) {
  // Two estimators share env->ch_cache; each drives the batched exact
  // derouting and an ETA window. Every plane either of them reads comes
  // from the cache, so each distinct weight vector is swept exactly once,
  // and every sweep is counted by exactly one derouting ChQuery.
  constexpr double kBucketS = 900.0;
  constexpr size_t kLanes = 3;
  auto env = BackendEnvironment(DeroutingBackend::kCh, 0, kBucketS);
  ASSERT_NE(env, nullptr);
  auto states = testing_util::TinyWorkload(*env, 4);
  ASSERT_FALSE(states.empty());
  EcEstimator second(env->dataset.network, &env->chargers, env->energy.get(),
                     env->availability.get(), env->congestion.get(),
                     env->estimator->options());
  const std::vector<EcEstimator*> estimators = {env->estimator.get(),
                                                &second};

  std::vector<ChClassWeights> distinct;
  const auto request = [&](SimTime tau) {
    const ChClassWeights w = CongestedWeights(*env->congestion, tau);
    for (const ChClassWeights& seen : distinct) {
      if (std::memcmp(seen.w, w.w, sizeof(w.w)) == 0) return;
    }
    distinct.push_back(w);
  };
  std::vector<ChargerRef> refs;
  for (size_t c = 0; c < env->chargers.size(); c += 9) {
    refs.push_back(&env->chargers[c]);
  }
  DeroutingBatchScratch scratch;
  std::vector<DeroutingEstimate> estimates;
  std::vector<double> etas;
  for (const VehicleState& state : states) {
    const SimTime tau0 = std::floor(state.time / kBucketS) * kBucketS;
    for (size_t e = 0; e < estimators.size(); ++e) {
      DeroutingService& derouting = estimators[e]->derouting_service();
      const DeroutingQuery query = estimators[e]->MakeDeroutingQuery(state);
      derouting.ExactBatch(query, refs, &scratch, &estimates);
      derouting.EtaWindow(query, *refs.front(), kLanes, &etas);
      for (size_t j = 0; j < kLanes; ++j) request(tau0 + j * kBucketS);
    }
  }

  const ChCustomizationCache& cache = *env->ch_cache;
  EXPECT_EQ(cache.builds(), distinct.size());
  size_t counted = 0;
  for (size_t e = 0; e < estimators.size(); ++e) {
    counted += estimators[e]->derouting_service().ch_query()->customizations();
  }
  EXPECT_EQ(counted, cache.builds());
}

}  // namespace
}  // namespace ecocharge
