#include "core/score.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "core/simd_score.h"

namespace ecocharge {
namespace {

EcIntervals SampleEcs() {
  EcIntervals ecs;
  ecs.level = Interval{0.2, 0.6};
  ecs.availability = Interval{0.5, 0.9};
  ecs.derouting = Interval{0.1, 0.3};
  return ecs;
}

TEST(ScoreWeightsTest, PresetsAreValid) {
  EXPECT_TRUE(ScoreWeights::AWE().Validate().ok());
  EXPECT_TRUE(ScoreWeights::OSC().Validate().ok());
  EXPECT_TRUE(ScoreWeights::OA().Validate().ok());
  EXPECT_TRUE(ScoreWeights::ODC().Validate().ok());
}

TEST(ScoreWeightsTest, RejectsBadWeights) {
  ScoreWeights w{0.5, 0.5, 0.5};
  EXPECT_FALSE(w.Validate().ok());
  ScoreWeights neg{-0.2, 0.6, 0.6};
  EXPECT_FALSE(neg.Validate().ok());
}

TEST(ScorePairTest, MatchesEquations4And5) {
  // SC_min = L_min w1 + A_min w2 + (1 - D_min) w3, and the max analogue.
  EcIntervals ecs = SampleEcs();
  ScoreWeights w{0.5, 0.3, 0.2};
  ScorePair sc = ComputeScorePair(ecs, w);
  EXPECT_NEAR(sc.sc_min, 0.2 * 0.5 + 0.5 * 0.3 + (1 - 0.1) * 0.2, 1e-12);
  EXPECT_NEAR(sc.sc_max, 0.6 * 0.5 + 0.9 * 0.3 + (1 - 0.3) * 0.2, 1e-12);
}

TEST(ScorePairTest, EqualWeightsExample) {
  // The paper's worked example logic: better level and lower derouting
  // must win under equal weights.
  ScoreWeights w = ScoreWeights::AWE();
  EcIntervals good;
  good.level = Interval::Exact(0.9);
  good.availability = Interval::Exact(0.8);
  good.derouting = Interval::Exact(0.1);
  EcIntervals bad;
  bad.level = Interval::Exact(0.3);
  bad.availability = Interval::Exact(0.8);
  bad.derouting = Interval::Exact(0.5);
  EXPECT_GT(ComputeScorePair(good, w).Mid(), ComputeScorePair(bad, w).Mid());
}

TEST(ExactScoreTest, BoundsForNormalizedInputs) {
  ScoreWeights w = ScoreWeights::AWE();
  EXPECT_NEAR(ComputeExactScore(1.0, 1.0, 0.0, w), 1.0, 1e-12);
  EXPECT_NEAR(ComputeExactScore(0.0, 0.0, 1.0, w), 0.0, 1e-12);
}

TEST(ExactScoreTest, SingleObjectivePresetsIsolateTerms) {
  EXPECT_DOUBLE_EQ(ComputeExactScore(0.7, 0.1, 0.9, ScoreWeights::OSC()),
                   0.7);
  EXPECT_DOUBLE_EQ(ComputeExactScore(0.7, 0.1, 0.9, ScoreWeights::OA()), 0.1);
  EXPECT_NEAR(ComputeExactScore(0.7, 0.1, 0.9, ScoreWeights::ODC()), 0.1,
              1e-12);
}

TEST(ScoreEnclosureTest, ContainsAllRealizations) {
  Rng rng(66);
  ScoreWeights w = ScoreWeights::AWE();
  for (int trial = 0; trial < 200; ++trial) {
    EcIntervals ecs;
    ecs.level = Interval::FromUnordered(rng.NextDouble(), rng.NextDouble());
    ecs.availability =
        Interval::FromUnordered(rng.NextDouble(), rng.NextDouble());
    ecs.derouting =
        Interval::FromUnordered(rng.NextDouble(), rng.NextDouble());
    Interval enclosure = ComputeScoreEnclosure(ecs, w);
    // Sample realizations inside the EC intervals.
    for (int s = 0; s < 5; ++s) {
      double l = rng.NextDouble(ecs.level.lo, ecs.level.hi + 1e-15);
      double a = rng.NextDouble(ecs.availability.lo,
                                ecs.availability.hi + 1e-15);
      double d = rng.NextDouble(ecs.derouting.lo, ecs.derouting.hi + 1e-15);
      double sc = ComputeExactScore(l, a, d, w);
      EXPECT_GE(sc, enclosure.lo - 1e-9);
      EXPECT_LE(sc, enclosure.hi + 1e-9);
    }
    // The paper's ScorePair lies within the rigorous enclosure too.
    ScorePair pair = ComputeScorePair(ecs, w);
    EXPECT_GE(pair.sc_min, enclosure.lo - 1e-9);
    EXPECT_LE(pair.sc_min, enclosure.hi + 1e-9);
    EXPECT_GE(pair.sc_max, enclosure.lo - 1e-9);
    EXPECT_LE(pair.sc_max, enclosure.hi + 1e-9);
  }
}

TEST(ScorePairTest, ExactIntervalsCollapsePair) {
  EcIntervals ecs;
  ecs.level = Interval::Exact(0.4);
  ecs.availability = Interval::Exact(0.6);
  ecs.derouting = Interval::Exact(0.2);
  ScoreWeights w = ScoreWeights::AWE();
  ScorePair sc = ComputeScorePair(ecs, w);
  EXPECT_DOUBLE_EQ(sc.sc_min, sc.sc_max);
  EXPECT_DOUBLE_EQ(sc.Mid(), ComputeExactScore(0.4, 0.6, 0.2, w));
}

// --- Degenerate-input semantics (pinned; DESIGN.md §15) ------------------
// The scoring arithmetic itself is IEEE-transparent: degraded EIS inputs
// (NaN from a failed estimate, inf from an unreachable charger) propagate
// into the score pair unchanged, and the *ranking* layer — not the scorer —
// pins their order via the total-order key: NaN strictly last, -inf below
// every finite score. The SoA score kernels must reproduce these bit for
// bit (asserted in simd_score_test.cc).

TEST(ScorePairDegenerateTest, ZeroWidthIntervalsGiveZeroWidthPair) {
  // SC_min == SC_max bitwise, and Mid() reproduces them bitwise too (no
  // rounding detour through (a + b) / 2 can move a bit when a == b).
  EcIntervals ecs;
  ecs.level = Interval::Exact(0.3);
  ecs.availability = Interval::Exact(0.7);
  ecs.derouting = Interval::Exact(0.4);
  ScorePair sc = ComputeScorePair(ecs, ScoreWeights::AWE());
  EXPECT_EQ(std::bit_cast<uint64_t>(sc.sc_min),
            std::bit_cast<uint64_t>(sc.sc_max));
  EXPECT_EQ(std::bit_cast<uint64_t>(sc.Mid()),
            std::bit_cast<uint64_t>(sc.sc_min));
}

TEST(ScorePairDegenerateTest, NanComponentPropagatesToNanScore) {
  EcIntervals ecs = SampleEcs();
  // Direct member assignment: the Interval constructor's lo <= hi
  // precondition is (correctly) unsatisfiable for NaN.
  ecs.availability.lo = std::numeric_limits<double>::quiet_NaN();
  ScorePair sc = ComputeScorePair(ecs, ScoreWeights::AWE());
  EXPECT_TRUE(std::isnan(sc.sc_min));
  EXPECT_FALSE(std::isnan(sc.sc_max));  // hi lane untouched
  EXPECT_TRUE(std::isnan(sc.Mid()));    // midpoint inherits the NaN
  // The ranking key pins NaN strictly below every real value.
  EXPECT_EQ(simd::DescendingKey(sc.Mid()), 0u);
  EXPECT_LT(simd::DescendingKey(sc.Mid()),
            simd::DescendingKey(-std::numeric_limits<double>::infinity()));
}

TEST(ScorePairDegenerateTest, InfiniteDeroutingYieldsMinusInfScore) {
  EcIntervals ecs = SampleEcs();
  ecs.derouting.lo = std::numeric_limits<double>::infinity();
  ScorePair sc = ComputeScorePair(ecs, ScoreWeights::AWE());
  // (1 - inf) * w3 = -inf: an unreachable charger scores -inf, which the
  // total order ranks below every finite score but above NaN.
  EXPECT_TRUE(std::isinf(sc.sc_min));
  EXPECT_LT(sc.sc_min, 0.0);
  EXPECT_LT(simd::DescendingKey(sc.sc_min), simd::DescendingKey(-1e300));
  EXPECT_GT(simd::DescendingKey(sc.sc_min),
            simd::DescendingKey(std::numeric_limits<double>::quiet_NaN()));
}

TEST(ScorePairDegenerateTest, ZeroWeightSilencesNanComponent) {
  // A degraded component with weight 0 contributes 0 * NaN = NaN under
  // IEEE — pin that the single-objective presets do NOT silence a NaN in
  // their zeroed components (0 * NaN is NaN, not 0). Consumers that need
  // isolation must sanitize inputs, not rely on the weights.
  EcIntervals ecs = SampleEcs();
  ecs.availability.lo = std::numeric_limits<double>::quiet_NaN();
  ScorePair sc = ComputeScorePair(ecs, ScoreWeights::OSC());
  EXPECT_TRUE(std::isnan(sc.sc_min));
}

}  // namespace
}  // namespace ecocharge
