// Parameterized property sweeps over the CkNN-EC pipeline: the guarantees
// that must hold for every (k, R) combination, not just the defaults.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/cknn_ec.h"
#include "core/ecocharge.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

struct SweepParam {
  size_t k;
  double radius_m;
};

class CknnSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static void SetUpTestSuite() {
    env_ = testing_util::TinyEnvironment(70).release();
    states_ = new std::vector<VehicleState>(
        testing_util::TinyWorkload(*env_, 4));
  }
  static void TearDownTestSuite() {
    delete states_;
    delete env_;
    env_ = nullptr;
    states_ = nullptr;
  }

  static Environment* env_;
  static std::vector<VehicleState>* states_;
};

Environment* CknnSweepTest::env_ = nullptr;
std::vector<VehicleState>* CknnSweepTest::states_ = nullptr;

TEST_P(CknnSweepTest, TableSizeAndOrdering) {
  SweepParam p = GetParam();
  EcoChargeOptions opts;
  opts.radius_m = p.radius_m;
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      ScoreWeights::AWE(), opts);
  for (const VehicleState& state : *states_) {
    OfferingTable table = eco.Rank(state, p.k);
    EXPECT_LE(table.size(), p.k);
    for (size_t i = 1; i < table.size(); ++i) {
      EXPECT_GE(table.entries[i - 1].SortKey(), table.entries[i].SortKey());
    }
    // Entries are distinct chargers.
    for (size_t i = 0; i < table.size(); ++i) {
      for (size_t j = i + 1; j < table.size(); ++j) {
        EXPECT_NE(table.entries[i].charger_id, table.entries[j].charger_id);
      }
    }
  }
}

TEST_P(CknnSweepTest, MatchesExhaustiveEstimatedObjective) {
  // With refinement disabled and the full radius, the CkNN-EC pipeline is
  // an exact top-k under the estimated objective: verify against a direct
  // exhaustive ranking of the same scores. (Only when min/max rankings
  // agree on membership is the top-k unique; compare score *sums* to stay
  // robust to legitimate intersection reshuffling.)
  SweepParam p = GetParam();
  CknnEcOptions opts;
  opts.radius_m = p.radius_m;
  opts.refine_exact_derouting = false;
  CknnEcProcessor processor(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  ScoreWeights w = ScoreWeights::AWE();
  for (const VehicleState& state : *states_) {
    auto entries = processor.Query(state, p.k, w);

    std::vector<ChargerId> in_range =
        processor.FilterCandidates(state.position);
    std::vector<ScoredCandidate> scored =
        processor.ScoreCandidates(state, in_range, w);
    std::sort(scored.begin(), scored.end(),
              [](const ScoredCandidate& a, const ScoredCandidate& b) {
                if (a.score.Mid() != b.score.Mid()) {
                  return a.score.Mid() > b.score.Mid();
                }
                return a.charger_id < b.charger_id;
              });
    double best_sum = 0.0;
    for (size_t i = 0; i < std::min(p.k, scored.size()); ++i) {
      best_sum += scored[i].score.Mid();
    }
    double got_sum = 0.0;
    for (const OfferingEntry& e : entries) got_sum += e.score.Mid();
    // The intersection is allowed to trade a sliver of midpoint score for
    // robustness, never more than the spread between rankings.
    EXPECT_GE(got_sum, 0.90 * best_sum);
    EXPECT_LE(got_sum, best_sum + 1e-9);
  }
}

TEST_P(CknnSweepTest, AllPicksWithinRadius) {
  SweepParam p = GetParam();
  CknnEcOptions opts;
  opts.radius_m = p.radius_m;
  CknnEcProcessor processor(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  for (const VehicleState& state : *states_) {
    auto entries = processor.Query(state, p.k, ScoreWeights::AWE());
    for (const OfferingEntry& e : entries) {
      EXPECT_LE(
          Distance(env_->chargers[e.charger_id].position, state.position),
          p.radius_m + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAndRadius, CknnSweepTest,
    ::testing::Values(SweepParam{1, 8000.0}, SweepParam{1, 50000.0},
                      SweepParam{3, 8000.0}, SweepParam{3, 20000.0},
                      SweepParam{3, 50000.0}, SweepParam{5, 20000.0},
                      SweepParam{10, 50000.0}),
    [](const auto& info) {
      // Formatted in place: a std::string operator+ chain here trips
      // GCC 12's -Wrestrict false positive in char_traits.
      char name[48];
      std::snprintf(name, sizeof(name), "k%zu_R%dkm", info.param.k,
                    static_cast<int>(info.param.radius_m / 1000.0));
      return std::string(name);
    });

TEST(IntersectionFuzzTest, NeverCrashesAndAlwaysOrdered) {
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = rng.NextBounded(40);
    size_t k = 1 + rng.NextBounded(8);
    std::vector<ScoredCandidate> pool(n);
    for (size_t i = 0; i < n; ++i) {
      pool[i].charger_id = static_cast<ChargerId>(rng.NextBounded(1000));
      pool[i].score =
          ScorePair{rng.NextDouble(-1.0, 2.0), rng.NextDouble(-1.0, 2.0)};
    }
    auto result = IterativeDeepeningIntersection(pool, k);
    EXPECT_LE(result.size(), std::min(k, n));
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_GE(result[i - 1].score.Mid(), result[i].score.Mid());
    }
  }
}

}  // namespace
}  // namespace ecocharge
