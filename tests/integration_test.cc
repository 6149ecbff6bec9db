// End-to-end integration tests: the full EcoCharge pipeline on a small but
// complete world, checking the cross-module invariants the figure benches
// rely on.

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/ecocharge.h"
#include "core/evaluation.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment(80, /*seed=*/2024);
    ASSERT_NE(env_, nullptr);
    states_ = testing_util::TinyWorkload(*env_, 8);
    ASSERT_GE(states_.size(), 4u);
    weights_ = ScoreWeights::AWE();
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
  ScoreWeights weights_;
};

TEST_F(IntegrationTest, MethodHierarchyMatchesPaper) {
  // SC ordering of Figure 6: BruteForce >= EcoCharge > Random, with
  // EcoCharge near-optimal.
  Evaluator evaluator(env_->estimator.get(), weights_);
  evaluator.SetWorkload(states_);

  BruteForceRanker brute(env_->estimator.get(), weights_);
  EcoChargeOptions opts;
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, opts);
  RandomRanker random(env_->estimator.get(), env_->charger_index.get(),
                      50000.0, 5);

  MethodEvaluation bf = evaluator.Evaluate(brute, 3, 1);
  MethodEvaluation ec = evaluator.Evaluate(eco, 3, 1);
  MethodEvaluation rn = evaluator.Evaluate(random, 3, 1);

  EXPECT_NEAR(bf.sc_percent.mean(), 100.0, 1e-9);
  EXPECT_GE(ec.sc_percent.mean(), 90.0);
  EXPECT_LE(ec.sc_percent.mean(), 100.0 + 1e-9);
  EXPECT_LT(rn.sc_percent.mean(), ec.sc_percent.mean());
  // F_t ordering: Brute-Force is the slowest by a wide margin. Pinned on
  // the work both spend on the network, not on the clock: Brute-Force runs
  // one exact Dijkstra sweep per charger, EcoCharge at most one batched
  // sweep per regenerated table.
  const DeroutingService& derouting = env_->estimator->derouting_service();
  auto forward_sweeps = [&](Ranker& ranker) {
    ranker.Reset();
    const uint64_t before = derouting.forward_sweeps();
    for (const VehicleState& state : states_) ranker.Rank(state, 3);
    return derouting.forward_sweeps() - before;
  };
  const uint64_t bf_sweeps = forward_sweeps(brute);
  const uint64_t ec_sweeps = forward_sweeps(eco);
  EXPECT_GT(ec_sweeps, 0u);
  EXPECT_GT(bf_sweeps, 5 * ec_sweeps);
}

TEST_F(IntegrationTest, LargerRadiusNeverLowersScore) {
  // Fig. 7's monotone trend, on average over the workload.
  Evaluator evaluator(env_->estimator.get(), weights_);
  evaluator.SetWorkload(states_);
  double prev = -1.0;
  for (double r : {8000.0, 20000.0, 60000.0}) {
    EcoChargeOptions opts;
    opts.radius_m = r;
    opts.q_distance_m = 0.0;  // isolate the radius effect
    EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                        weights_, opts);
    MethodEvaluation m = evaluator.Evaluate(eco, 3, 1);
    EXPECT_GE(m.sc_percent.mean(), prev - 1.0);  // allow tiny noise
    prev = m.sc_percent.mean();
  }
  EXPECT_GT(prev, 90.0);
}

TEST_F(IntegrationTest, LargerQIncreasesCacheHits) {
  // Fig. 8's mechanism: the bigger the reuse distance, the more Offering
  // Tables are adapted instead of regenerated.
  uint64_t prev_hits = 0;
  bool first = true;
  for (double q : {0.0, 4000.0, 15000.0}) {
    EcoChargeOptions opts;
    opts.q_distance_m = q;
    EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                        weights_, opts);
    for (const VehicleState& s : states_) eco.Rank(s, 3);
    if (!first) {
      EXPECT_GE(eco.cache().hits(), prev_hits);
    }
    prev_hits = eco.cache().hits();
    first = false;
  }
  EXPECT_GT(prev_hits, 0u);
}

TEST_F(IntegrationTest, EisCachesCutUpstreamCalls) {
  // Re-ranking the same workload must be nearly free on upstream APIs.
  EcoChargeOptions opts;
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, opts);
  for (const VehicleState& s : states_) eco.Rank(s, 3);
  EisCallStats after_first = env_->estimator->information_server().Snapshot();
  eco.Reset();
  for (const VehicleState& s : states_) eco.Rank(s, 3);
  EisCallStats after_second = env_->estimator->information_server().Snapshot();
  uint64_t second_pass_calls =
      (after_second.weather_api_calls - after_first.weather_api_calls) +
      (after_second.availability_api_calls -
       after_first.availability_api_calls);
  EXPECT_LT(second_pass_calls,
            (after_first.weather_api_calls +
             after_first.availability_api_calls) /
                4);
}

TEST_F(IntegrationTest, AblationWeightsShiftObjectives) {
  // Fig. 9's mechanism: ranking only by derouting yields picks with lower
  // derouting cost than ranking only by charging level.
  EcoChargeOptions opts;
  EcoChargeRanker by_level(env_->estimator.get(), env_->charger_index.get(),
                           ScoreWeights::OSC(), opts);
  EcoChargeRanker by_derouting(env_->estimator.get(),
                               env_->charger_index.get(),
                               ScoreWeights::ODC(), opts);
  double level_derouting = 0.0, derouting_derouting = 0.0;
  double level_level = 0.0, derouting_level = 0.0;
  for (const VehicleState& s : states_) {
    for (ChargerId id : by_level.Rank(s, 3).ChargerIds()) {
      EcTruth ref = env_->estimator->ReferenceComponents(s, env_->chargers[id]);
      level_derouting += ref.derouting;
      level_level += ref.level;
    }
    for (ChargerId id : by_derouting.Rank(s, 3).ChargerIds()) {
      EcTruth ref = env_->estimator->ReferenceComponents(s, env_->chargers[id]);
      derouting_derouting += ref.derouting;
      derouting_level += ref.level;
    }
  }
  EXPECT_LT(derouting_derouting, level_derouting);
  EXPECT_GT(level_level, derouting_level);
}

TEST_F(IntegrationTest, TruthAndReferenceComponentsAreNormalized) {
  for (const VehicleState& s : states_) {
    for (size_t i = 0; i < env_->chargers.size(); i += 7) {
      EcTruth truth = env_->estimator->Truth(s, env_->chargers[i]);
      EcTruth ref =
          env_->estimator->ReferenceComponents(s, env_->chargers[i]);
      for (const EcTruth& t : {truth, ref}) {
        EXPECT_GE(t.level, 0.0);
        EXPECT_LE(t.level, 1.0);
        EXPECT_GE(t.availability, 0.0);
        EXPECT_LE(t.availability, 1.0);
        EXPECT_GE(t.derouting, 0.0);
        EXPECT_LE(t.derouting, 1.0);
      }
    }
  }
}

TEST_F(IntegrationTest, EstimateIntervalsBracketReferenceLevel) {
  // The interval the filtering phase uses must usually contain the
  // reference midpoint the oracle scores with.
  int contained = 0, total = 0;
  for (const VehicleState& s : states_) {
    for (size_t i = 0; i < env_->chargers.size(); i += 5) {
      EcIntervals est =
          env_->estimator->EstimateIntervals(s, env_->chargers[i]);
      EcTruth ref =
          env_->estimator->ReferenceComponents(s, env_->chargers[i]);
      // Derouting: the estimate interval must bracket the exact value in
      // the large majority of cases (the detour factor is a heuristic).
      if (ref.derouting >= est.derouting.lo - 1e-9 &&
          ref.derouting <= est.derouting.hi + 0.05) {
        ++contained;
      }
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(contained) / total, 0.8);
}

}  // namespace
}  // namespace ecocharge
