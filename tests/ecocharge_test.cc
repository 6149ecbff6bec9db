#include "core/ecocharge.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "core/baselines.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

class EcoChargeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment(60);
    ASSERT_NE(env_, nullptr);
    states_ = testing_util::TinyWorkload(*env_, 6);
    ASSERT_GE(states_.size(), 2u);
    weights_ = ScoreWeights::AWE();
  }

  EcoChargeOptions DefaultOpts() {
    EcoChargeOptions opts;
    opts.radius_m = 50000.0;
    opts.q_distance_m = 5000.0;
    return opts;
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
  ScoreWeights weights_;
};

TEST_F(EcoChargeTest, ProducesRankedTables) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  for (const VehicleState& state : states_) {
    OfferingTable table = eco.Rank(state, 3);
    EXPECT_LE(table.size(), 3u);
    EXPECT_FALSE(table.empty());
    for (size_t i = 1; i < table.size(); ++i) {
      EXPECT_GE(table.entries[i - 1].SortKey(), table.entries[i].SortKey());
    }
    EXPECT_EQ(table.generated_at, state.time);
    EXPECT_EQ(table.segment_index, state.segment_index);
  }
}

TEST_F(EcoChargeTest, CacheAdaptsNearbyQueries) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  OfferingTable first = eco.Rank(states_[0], 3);
  EXPECT_FALSE(first.adapted_from_cache);
  // Same position a minute later: must be adapted.
  VehicleState nearby = states_[0];
  nearby.time += 60.0;
  OfferingTable second = eco.Rank(nearby, 3);
  EXPECT_TRUE(second.adapted_from_cache);
  EXPECT_EQ(eco.cache().hits(), 1u);
}

TEST_F(EcoChargeTest, StoredAdaptedTableMatchesFullPoolAdaptationBitwise) {
  // The cache keeps only the adapted table (eq. 6 at pool = k, no exact
  // refinement). A hit must serve, bit for bit, what adapting the whole
  // scored pool at k gives — over random states and weights, and over the
  // weights that make keys tie (all scores 0, or one component only) or
  // go NaN (a NaN weight; an infinite one, which makes 0 * inf = NaN).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ScoreWeights> weight_sets = {
      ScoreWeights::AWE(), ScoreWeights::OSC(), ScoreWeights::ODC(),
      {0.0, 0.0, 0.0},     {nan, 0.5, 0.5},     {inf, 0.0, 0.0}};
  Rng rng(0xADA97EDULL);
  for (int i = 0; i < 4; ++i) {
    const double a = rng.NextDouble(), b = rng.NextDouble(),
                 c = rng.NextDouble();
    weight_sets.push_back({a / (a + b + c), b / (a + b + c), c / (a + b + c)});
  }
  for (bool use_simd : {true, false}) {
    for (const ScoreWeights& weights : weight_sets) {
      EcoChargeOptions opts = DefaultOpts();
      opts.use_simd = use_simd;
      opts.q_distance_m = 1e9;  // every second query is a hit
      opts.cache_ttl_s = 1e12;
      EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                          weights, opts);
      CknnEcOptions popts;
      popts.radius_m = opts.radius_m;
      popts.derouting_norm_m = 2.0 * opts.radius_m;
      popts.use_simd = use_simd;
      CknnEcProcessor reference(env_->estimator.get(),
                                env_->charger_index.get(), popts);
      for (size_t k : {1u, 3u, 8u, 20u}) {
        VehicleState state =
            states_[rng.NextBounded(states_.size())];
        state.position =
            state.position + Point{rng.NextDouble(-2000.0, 2000.0),
                                   rng.NextDouble(-2000.0, 2000.0)};
        state.time += rng.NextDouble(0.0, 3600.0);
        eco.Reset();
        ASSERT_FALSE(eco.Rank(state, k).adapted_from_cache);
        VehicleState later = state;
        later.time += 60.0;
        OfferingTable served = eco.Rank(later, k);
        ASSERT_TRUE(served.adapted_from_cache);

        std::vector<ScoredCandidate> pool = reference.ScoreCandidates(
            state, reference.FilterCandidates(state.position), weights);
        QueryContext ctx;
        OfferingTable adapted;
        reference.RefineAndRank(later, &pool, k, weights,
                                /*refine_exact_derouting=*/false, &ctx,
                                &adapted.entries);
        adapted.generated_at = later.time;
        adapted.location = later.position;
        adapted.segment_index = later.segment_index;
        adapted.adapted_from_cache = true;
        for (const OfferingEntry& e : adapted.entries) {
          adapted.NoteEntryDegradation(e.ecs);
        }
        EXPECT_TRUE(testing_util::TablesBitIdentical(served, adapted))
            << "use_simd=" << use_simd << " k=" << k << " weights=("
            << weights.w_level << ", " << weights.w_availability << ", "
            << weights.w_derouting << ")";
      }
    }
  }
}

TEST_F(EcoChargeTest, HitAtAnotherKRegenerates) {
  // The stored table was adapted for one k, so a request for another k is
  // a miss: it regenerates (and matches a fresh ranker), then its own k
  // hits.
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  ASSERT_FALSE(eco.Rank(states_[0], 3).adapted_from_cache);
  VehicleState nearby = states_[0];
  nearby.time += 60.0;
  OfferingTable wider = eco.Rank(nearby, 5);
  EXPECT_FALSE(wider.adapted_from_cache);
  EXPECT_EQ(eco.cache().hits(), 0u);
  EXPECT_EQ(eco.cache().misses(), 2u);
  EcoChargeRanker fresh(env_->estimator.get(), env_->charger_index.get(),
                        weights_, DefaultOpts());
  EXPECT_TRUE(testing_util::TablesBitIdentical(wider, fresh.Rank(nearby, 5)));
  nearby.time += 60.0;
  EXPECT_TRUE(eco.Rank(nearby, 5).adapted_from_cache);
  EXPECT_EQ(eco.cache().hits(), 1u);
}

TEST_F(EcoChargeTest, FreshQueryLooksUpEachSourceOncePerCandidate) {
  // A fresh query estimates its candidates in columnar batches: one
  // traffic lookup, and one weather and one availability lookup per
  // *scored* candidate. The bound stage scores fewer chargers than the
  // radius admits (a fleet larger than its first round, so it can prune),
  // and the exact-derouting refinement keeps the scored estimates and
  // looks up nothing more.
  std::unique_ptr<Environment> env = testing_util::TinyEnvironment(400);
  ASSERT_NE(env, nullptr);
  const std::vector<VehicleState> states = testing_util::TinyWorkload(*env, 1);
  ASSERT_FALSE(states.empty());
  EcoChargeOptions opts = DefaultOpts();
  EcoChargeRanker eco(env->estimator.get(), env->charger_index.get(),
                      weights_, opts);
  obs::MetricsRegistry registry;
  eco.AttachMetrics(&registry);
  CknnEcOptions filter;
  filter.radius_m = opts.radius_m;
  const size_t candidates =
      CknnEcProcessor(env->estimator.get(), env->charger_index.get(), filter)
          .FilterCandidates(states[0].position)
          .size();
  ASSERT_GT(candidates, opts.refine_limit);  // the refinement runs in full
  const InformationServer& eis = env->estimator->information_server();
  const EisCallStats before = eis.Snapshot();
  OfferingTable table = eco.Rank(states[0], 3);
  ASSERT_FALSE(table.adapted_from_cache);
  const EisCallStats after = eis.Snapshot();
  auto lookups = [](const CacheStats& a, const CacheStats& b) {
    return (b.hits + b.misses) - (a.hits + a.misses);
  };
  const uint64_t scored =
      registry.FindCounter("pipeline.candidates_scored")->Value();
  EXPECT_EQ(scored + registry.FindCounter("pipeline.candidates_bounded")
                         ->Value(),
            candidates);
  EXPECT_LT(scored, candidates);
  EXPECT_EQ(lookups(before.traffic_cache, after.traffic_cache), 1u);
  EXPECT_EQ(lookups(before.weather_cache, after.weather_cache), scored);
  EXPECT_EQ(lookups(before.availability_cache, after.availability_cache),
            scored);
}

TEST_F(EcoChargeTest, FarQueryRegenerates) {
  EcoChargeOptions opts = DefaultOpts();
  opts.q_distance_m = 1000.0;
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, opts);
  eco.Rank(states_[0], 3);
  VehicleState far = states_[0];
  far.position = far.position + Point{5000.0, 0.0};
  OfferingTable table = eco.Rank(far, 3);
  EXPECT_FALSE(table.adapted_from_cache);
}

TEST_F(EcoChargeTest, ResetClearsCache) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  eco.Rank(states_[0], 3);
  eco.Reset();
  OfferingTable table = eco.Rank(states_[0], 3);
  EXPECT_FALSE(table.adapted_from_cache);
}

TEST_F(EcoChargeTest, CachedTableUsesCachedCandidateSet) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  OfferingTable first = eco.Rank(states_[0], 3);
  VehicleState nearby = states_[0];
  nearby.time += 30.0;
  OfferingTable second = eco.Rank(nearby, 3);
  ASSERT_TRUE(second.adapted_from_cache);
  // Same conditions seconds later: the adapted table must keep the same
  // leaders (forecasts are stable within a 15-minute bucket).
  EXPECT_EQ(first.ChargerIds()[0], second.ChargerIds()[0]);
}

TEST_F(EcoChargeTest, NearOptimalAgainstBruteForce) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  BruteForceRanker brute(env_->estimator.get(), weights_);
  double eco_total = 0.0, brute_total = 0.0;
  for (const VehicleState& state : states_) {
    for (ChargerId id : eco.Rank(state, 3).ChargerIds()) {
      eco_total +=
          env_->estimator->ReferenceScore(state, env_->chargers[id], weights_);
    }
    for (ChargerId id : brute.Rank(state, 3).ChargerIds()) {
      brute_total +=
          env_->estimator->ReferenceScore(state, env_->chargers[id], weights_);
    }
  }
  EXPECT_LE(eco_total, brute_total + 1e-9);
  EXPECT_GE(eco_total, 0.90 * brute_total);  // near-optimal (paper: 97.5-99%)
}

TEST_F(EcoChargeTest, SmallRadiusRestrictsChoices) {
  EcoChargeOptions opts = DefaultOpts();
  opts.radius_m = 6000.0;
  // Disable cache adaptation: cached candidate sets may legitimately
  // drift up to R + Q from the current position.
  opts.q_distance_m = 0.0;
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, opts);
  for (const VehicleState& state : states_) {
    OfferingTable table = eco.Rank(state, 3);
    for (ChargerId id : table.ChargerIds()) {
      EXPECT_LE(Distance(env_->chargers[id].position, state.position),
                opts.radius_m + 1e-9);
    }
  }
}

TEST_F(EcoChargeTest, DeterministicAcrossRuns) {
  EcoChargeRanker a(env_->estimator.get(), env_->charger_index.get(),
                    weights_, DefaultOpts());
  EcoChargeRanker b(env_->estimator.get(), env_->charger_index.get(),
                    weights_, DefaultOpts());
  for (const VehicleState& state : states_) {
    EXPECT_EQ(a.Rank(state, 3).ChargerIds(), b.Rank(state, 3).ChargerIds());
  }
}

TEST_F(EcoChargeTest, WeightsChangeTheRanking) {
  EcoChargeRanker level_only(env_->estimator.get(),
                             env_->charger_index.get(), ScoreWeights::OSC(),
                             DefaultOpts());
  EcoChargeRanker derouting_only(env_->estimator.get(),
                                 env_->charger_index.get(),
                                 ScoreWeights::ODC(), DefaultOpts());
  bool any_difference = false;
  for (const VehicleState& state : states_) {
    if (level_only.Rank(state, 3).ChargerIds() !=
        derouting_only.Rank(state, 3).ChargerIds()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace ecocharge
