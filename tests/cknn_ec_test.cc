#include "core/cknn_ec.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

ScoredCandidate Candidate(ChargerId id, double sc_min, double sc_max) {
  ScoredCandidate c;
  c.charger_id = id;
  c.score = ScorePair{sc_min, sc_max};
  return c;
}

TEST(IterativeDeepeningTest, EmptyAndZeroK) {
  EXPECT_TRUE(IterativeDeepeningIntersection({}, 3).empty());
  EXPECT_TRUE(
      IterativeDeepeningIntersection({Candidate(0, 1, 1)}, 0).empty());
}

TEST(IterativeDeepeningTest, AgreementReturnsTopK) {
  // When min and max rankings agree, the result is simply the top-k.
  std::vector<ScoredCandidate> pool;
  for (int i = 0; i < 10; ++i) {
    double s = 1.0 - 0.1 * i;
    pool.push_back(Candidate(i, s, s));
  }
  auto result = IterativeDeepeningIntersection(pool, 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].charger_id, 0u);
  EXPECT_EQ(result[1].charger_id, 1u);
  EXPECT_EQ(result[2].charger_id, 2u);
}

TEST(IterativeDeepeningTest, DisagreementDeepensUntilKCommon) {
  // Candidate 0 tops the min ranking, candidate 1 tops the max ranking;
  // candidate 2 is second in both. Intersection at depth 2 = {2} plus the
  // deepening pulls in the rest.
  std::vector<ScoredCandidate> pool = {
      Candidate(0, 0.9, 0.1),
      Candidate(1, 0.1, 0.9),
      Candidate(2, 0.8, 0.8),
      Candidate(3, 0.2, 0.2),
  };
  auto result = IterativeDeepeningIntersection(pool, 2);
  ASSERT_EQ(result.size(), 2u);
  // Candidate 2 is in both top-2 rankings; its midpoint (0.8) dominates.
  EXPECT_EQ(result[0].charger_id, 2u);
}

TEST(IterativeDeepeningTest, RobustCandidateBeatsOneSidedOnes) {
  // A charger that is merely good under both estimate sets must beat ones
  // that are excellent under one set and terrible under the other when k
  // is small.
  std::vector<ScoredCandidate> pool = {
      Candidate(0, 1.0, 0.0),  // only great under min-estimates
      Candidate(1, 0.0, 1.0),  // only great under max-estimates
      Candidate(2, 0.7, 0.7),  // robust
  };
  auto result = IterativeDeepeningIntersection(pool, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].charger_id, 2u);
}

TEST(IterativeDeepeningTest, KLargerThanPoolReturnsAll) {
  std::vector<ScoredCandidate> pool = {Candidate(0, 0.5, 0.5),
                                       Candidate(1, 0.4, 0.6)};
  auto result = IterativeDeepeningIntersection(pool, 10);
  EXPECT_EQ(result.size(), 2u);
}

TEST(IterativeDeepeningTest, ResultSortedByMidpointDescending) {
  Rng rng(71);
  std::vector<ScoredCandidate> pool;
  for (int i = 0; i < 50; ++i) {
    pool.push_back(Candidate(i, rng.NextDouble(), rng.NextDouble()));
  }
  auto result = IterativeDeepeningIntersection(pool, 10);
  ASSERT_EQ(result.size(), 10u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i - 1].score.Mid(), result[i].score.Mid());
  }
}

TEST(IterativeDeepeningTest, MembersAreInBothDeepRankings) {
  // Property: every returned candidate appears in the top-d of BOTH
  // rankings for the terminal depth d. Verify with d = pool size (the
  // weakest guarantee that must always hold).
  Rng rng(72);
  std::vector<ScoredCandidate> pool;
  for (int i = 0; i < 30; ++i) {
    pool.push_back(Candidate(i, rng.NextDouble(), rng.NextDouble()));
  }
  auto result = IterativeDeepeningIntersection(pool, 5);
  EXPECT_EQ(result.size(), 5u);
  std::set<ChargerId> ids;
  for (const auto& c : result) ids.insert(c.charger_id);
  EXPECT_EQ(ids.size(), result.size());  // no duplicates
}

TEST(IterativeDeepeningTest, DeterministicOnTies) {
  std::vector<ScoredCandidate> pool = {
      Candidate(5, 0.5, 0.5), Candidate(1, 0.5, 0.5), Candidate(3, 0.5, 0.5)};
  auto a = IterativeDeepeningIntersection(pool, 2);
  auto b = IterativeDeepeningIntersection(pool, 2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].charger_id, b[i].charger_id);
  }
  // Ties break toward smaller ids.
  EXPECT_EQ(a[0].charger_id, 1u);
}

TEST(IterativeDeepeningTest, DuplicateCostsMatchAcrossSimdModes) {
  // Regression for the cost-ordering call sites: with many duplicate
  // (SC_min, SC_max) pairs the old raw-double comparators left the order
  // to std::sort's whims; the keyed select pins ties to ascending charger
  // id.
  Rng rng(911);
  std::vector<ScoredCandidate> pool;
  const double alphabet[] = {0.25, 0.5, 0.5, 0.75};  // heavy duplication
  for (ChargerId id = 0; id < 40; ++id) {
    pool.push_back(Candidate(id, alphabet[rng.NextBounded(4)],
                             alphabet[rng.NextBounded(4)]));
  }
  for (size_t k : {0u, 1u, 7u, 40u, 64u}) {
    QueryContext ctx;
    std::vector<ScoredCandidate> out;
    IterativeDeepeningIntersection(pool, k, &ctx, &out);
    EXPECT_EQ(out.size(), std::min<size_t>(k, pool.size())) << "k=" << k;
    // Within a run of equal midpoints, ids ascend.
    for (size_t i = 1; i < out.size(); ++i) {
      if (out[i - 1].score.Mid() == out[i].score.Mid()) {
        EXPECT_LT(out[i - 1].charger_id, out[i].charger_id);
      }
    }
  }
}

TEST(IterativeDeepeningTest, NanScoresRankLastDeterministically) {
  // Degraded EIS estimates can surface NaN score pairs. The total-order
  // key ranks them strictly after every real score (ties by id), instead
  // of feeding NaN to a raw double comparator (strict-weak-ordering UB).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ScoredCandidate> pool = {
      Candidate(7, nan, nan),  Candidate(2, 0.6, 0.6), Candidate(9, nan, nan),
      Candidate(4, 0.9, 0.9),  Candidate(1, nan, nan),
  };
  QueryContext ctx;
  std::vector<ScoredCandidate> out;
  IterativeDeepeningIntersection(pool, pool.size(), &ctx, &out);
  ASSERT_EQ(out.size(), pool.size());
  EXPECT_EQ(out[0].charger_id, 4u);
  EXPECT_EQ(out[1].charger_id, 2u);
  // NaN block last, ascending id.
  EXPECT_EQ(out[2].charger_id, 1u);
  EXPECT_EQ(out[3].charger_id, 7u);
  EXPECT_EQ(out[4].charger_id, 9u);
}

/// Eq. 6 as it ran before the one-pass select: re-iota both index arrays
/// every round and partition each with nth_element, then order the common
/// set by midpoint the same way. Kept as the reference the production
/// select must reproduce bit for bit.
std::vector<ScoredCandidate> ReselectIntersection(
    const std::vector<ScoredCandidate>& candidates, size_t k) {
  std::vector<ScoredCandidate> out;
  if (candidates.empty() || k == 0) return out;
  const size_t n = candidates.size();
  std::vector<uint64_t> keys_min(n), keys_max(n), keys_mid(n);
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    const ScorePair& s = candidates[i].score;
    keys_min[i] = simd::DescendingKey(s.sc_min);
    keys_max[i] = simd::DescendingKey(s.sc_max);
    keys_mid[i] = simd::DescendingKey((s.sc_min + s.sc_max) * 0.5);
    ids[i] = candidates[i].charger_id;
  }
  auto select = [&ids](const std::vector<uint64_t>& keys,
                       std::vector<uint32_t>* idx, size_t m) {
    auto less = [&](uint32_t a, uint32_t b) {
      if (keys[a] != keys[b]) return keys[a] > keys[b];
      return ids[a] < ids[b];
    };
    if (m == 0) return;
    if (m < idx->size()) {
      std::nth_element(idx->begin(), idx->begin() + (m - 1), idx->end(),
                       less);
      std::sort(idx->begin(), idx->begin() + m, less);
    } else {
      std::sort(idx->begin(), idx->end(), less);
    }
  };
  std::vector<uint32_t> by_min(n), by_max(n), common;
  std::vector<bool> in_min(n);
  size_t depth = std::min(k, n);
  while (true) {
    for (uint32_t i = 0; i < n; ++i) by_min[i] = by_max[i] = i;
    select(keys_min, &by_min, depth);
    select(keys_max, &by_max, depth);
    std::fill(in_min.begin(), in_min.end(), false);
    for (size_t i = 0; i < depth; ++i) in_min[by_min[i]] = true;
    common.clear();
    for (size_t i = 0; i < depth; ++i) {
      if (in_min[by_max[i]]) common.push_back(by_max[i]);
    }
    if (common.size() >= k || depth == n) break;
    depth = std::min(n, depth * 2);
  }
  const size_t keep = std::min(k, common.size());
  select(keys_mid, &common, keep);
  common.resize(keep);
  for (uint32_t idx : common) out.push_back(candidates[idx]);
  return out;
}

TEST(CknnEcTest, IntersectionMatchesReselectReferenceBitwise) {
  // Pools mixing a tiny score alphabet (heavy key ties), NaN and signed
  // zeros with distinct random scores, under shuffled distinct ids.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double alphabet[] = {0.25, 0.5, 0.75, 0.0, -0.0, nan};
  Rng rng(0x1D5E1EC7ULL);
  QueryContext ctx;  // one context across every call, as a worker keeps
  std::vector<ScoredCandidate> out;
  for (size_t n : {1u, 7u, 64u, 1000u}) {
    std::vector<ChargerId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<ChargerId>(3 * i + 1);
    rng.Shuffle(ids);
    std::vector<ScoredCandidate> pool;
    for (size_t i = 0; i < n; ++i) {
      auto draw = [&]() {
        return rng.NextBool(0.6) ? alphabet[rng.NextBounded(6)]
                                 : rng.NextDouble();
      };
      pool.push_back(Candidate(ids[i], draw(), draw()));
    }
    for (size_t k = 1; k <= n + 3; ++k) {
      const std::vector<ScoredCandidate> expected =
          ReselectIntersection(pool, k);
      IterativeDeepeningIntersection(pool, k, &ctx, &out);
      ASSERT_EQ(out.size(), expected.size()) << "n=" << n << " k=" << k;
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i].charger_id, expected[i].charger_id)
            << "n=" << n << " k=" << k << " row " << i;
        ASSERT_EQ(std::bit_cast<uint64_t>(out[i].score.sc_min),
                  std::bit_cast<uint64_t>(expected[i].score.sc_min));
        ASSERT_EQ(std::bit_cast<uint64_t>(out[i].score.sc_max),
                  std::bit_cast<uint64_t>(expected[i].score.sc_max));
      }
    }
  }
}

class CknnProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment(80);
    ASSERT_NE(env_, nullptr);
    states_ = testing_util::TinyWorkload(*env_, 4);
    ASSERT_FALSE(states_.empty());
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

TEST_F(CknnProcessorTest, FilterRespectsRadius) {
  CknnEcOptions opts;
  opts.radius_m = 8000.0;
  CknnEcProcessor processor(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  std::vector<ChargerId> ids =
      processor.FilterCandidates(states_[0].position);
  for (ChargerId id : ids) {
    EXPECT_LE(Distance(env_->chargers[id].position, states_[0].position),
              opts.radius_m + 1e-9);
  }
  // And nothing in range is missed.
  size_t expected = 0;
  for (const EvCharger& c : env_->chargers) {
    if (Distance(c.position, states_[0].position) <= opts.radius_m) {
      ++expected;
    }
  }
  EXPECT_EQ(ids.size(), expected);
}

TEST_F(CknnProcessorTest, QueryReturnsAtMostKSortedEntries) {
  CknnEcOptions opts;
  opts.radius_m = 50000.0;
  CknnEcProcessor processor(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  ScoreWeights w = ScoreWeights::AWE();
  for (const VehicleState& state : states_) {
    auto entries = processor.Query(state, 3, w);
    EXPECT_LE(entries.size(), 3u);
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_GE(entries[i - 1].SortKey(), entries[i].SortKey());
    }
  }
}

TEST_F(CknnProcessorTest, RefinementCollapsesDeroutingInterval) {
  CknnEcOptions opts;
  opts.radius_m = 50000.0;
  opts.refine_limit = 8;
  opts.refine_exact_derouting = true;
  CknnEcProcessor processor(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  auto entries = processor.Query(states_[0], 3, ScoreWeights::AWE());
  for (const OfferingEntry& e : entries) {
    EXPECT_TRUE(e.ecs.derouting.IsExact());
  }
}

TEST_F(CknnProcessorTest, NoRefinementKeepsInterval) {
  CknnEcOptions opts;
  opts.radius_m = 50000.0;
  opts.refine_exact_derouting = false;
  CknnEcProcessor processor(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  auto entries = processor.Query(states_[0], 3, ScoreWeights::AWE());
  ASSERT_FALSE(entries.empty());
  bool any_interval = false;
  for (const OfferingEntry& e : entries) {
    if (!e.ecs.derouting.IsExact()) any_interval = true;
  }
  EXPECT_TRUE(any_interval);
}

TEST_F(CknnProcessorTest, EmptyRadiusYieldsEmptyTable) {
  CknnEcOptions opts;
  opts.radius_m = 1.0;  // nothing within one meter
  CknnEcProcessor processor(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  Point faraway = states_[0].position + Point{1e6, 1e6};
  VehicleState s = states_[0];
  s.position = faraway;
  auto entries = processor.Query(s, 3, ScoreWeights::AWE());
  EXPECT_TRUE(entries.empty());
}

// Bitwise comparison of two offering entry lists (every double compared by
// bit pattern, not value — the parity contract of DESIGN.md §15).
void ExpectEntriesBitIdentical(const std::vector<OfferingEntry>& a,
                               const std::vector<OfferingEntry>& b) {
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].charger_id, b[i].charger_id) << "rank " << i;
    EXPECT_EQ(bits(a[i].score.sc_min), bits(b[i].score.sc_min)) << i;
    EXPECT_EQ(bits(a[i].score.sc_max), bits(b[i].score.sc_max)) << i;
    EXPECT_EQ(bits(a[i].ecs.level.lo), bits(b[i].ecs.level.lo)) << i;
    EXPECT_EQ(bits(a[i].ecs.level.hi), bits(b[i].ecs.level.hi)) << i;
    EXPECT_EQ(bits(a[i].ecs.availability.lo), bits(b[i].ecs.availability.lo))
        << i;
    EXPECT_EQ(bits(a[i].ecs.availability.hi), bits(b[i].ecs.availability.hi))
        << i;
    EXPECT_EQ(bits(a[i].ecs.derouting.lo), bits(b[i].ecs.derouting.lo)) << i;
    EXPECT_EQ(bits(a[i].ecs.derouting.hi), bits(b[i].ecs.derouting.hi)) << i;
    EXPECT_EQ(bits(a[i].eta_s), bits(b[i].eta_s)) << i;
  }
}

TEST_F(CknnProcessorTest, KZeroReturnsEmptyTableColumnarAndPerCandidate) {
  for (bool use_simd : {true, false}) {
    CknnEcOptions opts;
    opts.radius_m = 50000.0;
    opts.use_simd = use_simd;
    CknnEcProcessor processor(env_->estimator.get(),
                              env_->charger_index.get(), opts);
    EXPECT_TRUE(processor.Query(states_[0], 0, ScoreWeights::AWE()).empty());
  }
}

TEST_F(CknnProcessorTest, OversizedRefineLimitMatchesScalarBitwise) {
  // refine_limit far beyond the candidate pool: the partial select must
  // clamp to the pool and produce the same table as the per-candidate
  // estimation oracle (use_simd = false).
  CknnEcOptions opts;
  opts.radius_m = 50000.0;
  opts.refine_limit = 100000;  // >> any candidate count in the tiny env
  opts.refine_exact_derouting = true;
  CknnEcOptions scalar_opts = opts;
  scalar_opts.use_simd = false;
  CknnEcProcessor simd_proc(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  CknnEcProcessor scalar_proc(env_->estimator.get(),
                              env_->charger_index.get(), scalar_opts);
  for (const VehicleState& state : states_) {
    for (size_t k : {0u, 3u, 500u}) {
      auto simd_entries = simd_proc.Query(state, k, ScoreWeights::AWE());
      auto scalar_entries = scalar_proc.Query(state, k, ScoreWeights::AWE());
      ExpectEntriesBitIdentical(simd_entries, scalar_entries);
      EXPECT_LE(simd_entries.size(), k);
    }
  }
}

TEST_F(CknnProcessorTest, AblationPathMatchesScalarBitwise) {
  // use_intersection = false routes ranking through the plain midpoint
  // top-pool path — hold it to the per-candidate estimation oracle too.
  CknnEcOptions opts;
  opts.radius_m = 50000.0;
  opts.use_intersection = false;
  CknnEcOptions scalar_opts = opts;
  scalar_opts.use_simd = false;
  CknnEcProcessor simd_proc(env_->estimator.get(), env_->charger_index.get(),
                            opts);
  CknnEcProcessor scalar_proc(env_->estimator.get(),
                              env_->charger_index.get(), scalar_opts);
  for (const VehicleState& state : states_) {
    ExpectEntriesBitIdentical(simd_proc.Query(state, 4, ScoreWeights::AWE()),
                              scalar_proc.Query(state, 4, ScoreWeights::AWE()));
  }
}

}  // namespace
}  // namespace ecocharge
