// Score-kernel checks (DESIGN.md §15): the SoA kernels must reproduce
// the per-candidate AoS arithmetic bit for bit — ScoreIntervals against
// ComputeScorePair, Midpoints against ScorePair::Mid(), DescendingKeys
// against per-element DescendingKey — on batches covering every small
// size, ties, and non-finite lanes from degraded estimates. The partial
// selects must match full-sort-then-truncate exactly, because the
// (key, tiebreak) order is total.

#include "core/simd_score.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace ecocharge {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise equality. The keys are deterministic functions of the input
/// *bits*, so even NaN inputs must produce exactly equal outputs; score
/// arithmetic on NaN inputs may legally differ in payload bits only,
/// which SameOrBothNan() accounts for where it applies.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameOrBothNan(double a, double b) {
  return SameBits(a, b) || (std::isnan(a) && std::isnan(b));
}

/// Batch sizes: empty, every small size, and a few odd larger ones.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100, 257};

/// A fuzzed EC lane value: mostly in [0, 1], sometimes degenerate.
double FuzzComponent(Rng* rng) {
  const uint64_t shape = rng->NextBounded(16);
  if (shape == 0) return kNan;
  if (shape == 1) return kInf;
  if (shape == 2) return -kInf;
  if (shape == 3) return 0.0;
  if (shape == 4) return -0.0;
  if (shape == 5) return 1.0;
  return rng->NextDouble(-0.5, 1.5);
}

TEST(DescendingKeyTest, IsMonotoneOnOrderedDoubles) {
  // Every adjacent pair of this ascending sequence must map to strictly
  // ascending keys.
  const double ordered[] = {-kInf,  -1e300, -2.5, -1.0,
                            -1e-12, -0.0,   0.0,  5e-324,
                            0.25,   1.0,    42.0, 1e300,
                            kInf};
  for (size_t i = 0; i + 1 < std::size(ordered); ++i) {
    const uint64_t ka = simd::DescendingKey(ordered[i]);
    const uint64_t kb = simd::DescendingKey(ordered[i + 1]);
    if (SameBits(ordered[i], ordered[i + 1])) {
      EXPECT_EQ(ka, kb);
    } else {
      EXPECT_LT(ka, kb) << ordered[i] << " vs " << ordered[i + 1];
    }
  }
  // -0.0 and +0.0 differ in one bit: the total order puts -0.0 first.
  EXPECT_LT(simd::DescendingKey(-0.0), simd::DescendingKey(0.0));
}

TEST(DescendingKeyTest, NanRanksBelowEverything) {
  EXPECT_EQ(simd::DescendingKey(kNan), 0u);
  EXPECT_EQ(simd::DescendingKey(-kNan), 0u);
  // ... strictly below even -inf, so a NaN score sorts last descending.
  EXPECT_GT(simd::DescendingKey(-kInf), simd::DescendingKey(kNan));
}

TEST(SimdKernelTest, ScoreIntervalsMatchesComputeScorePair) {
  // The lane kernel vs the AoS production oracle. Well-formed inputs
  // first: exact bit equality, no NaN escape hatch.
  Rng rng(0xB17AB17ULL);
  const ScoreWeights w = ScoreWeights::AWE();
  const size_t n = 129;
  std::vector<double> llo(n), lhi(n), alo(n), ahi(n), dlo(n), dhi(n);
  std::vector<EcIntervals> ecs(n);
  for (size_t i = 0; i < n; ++i) {
    const double l = rng.NextDouble(), a = rng.NextDouble();
    const double d = rng.NextDouble();
    ecs[i].level = Interval(l * 0.5, l);
    ecs[i].availability = Interval(a * 0.5, a);
    ecs[i].derouting = Interval(d * 0.5, d);
    llo[i] = ecs[i].level.lo;
    lhi[i] = ecs[i].level.hi;
    alo[i] = ecs[i].availability.lo;
    ahi[i] = ecs[i].availability.hi;
    dlo[i] = ecs[i].derouting.lo;
    dhi[i] = ecs[i].derouting.hi;
  }
  std::vector<double> min_v(n), max_v(n);
  simd::ScoreIntervals(llo.data(), lhi.data(), alo.data(), ahi.data(),
                       dlo.data(), dhi.data(), n, w, min_v.data(),
                       max_v.data());
  for (size_t i = 0; i < n; ++i) {
    const ScorePair sc = ComputeScorePair(ecs[i], w);
    EXPECT_TRUE(SameBits(min_v[i], sc.sc_min)) << "lane " << i;
    EXPECT_TRUE(SameBits(max_v[i], sc.sc_max)) << "lane " << i;
  }

  // Fuzzed batches of every size under every weight preset, degenerate
  // lanes (NaN, ±inf, ±0, unordered endpoints) included; a NaN result
  // may differ in payload bits only.
  const ScoreWeights presets[] = {ScoreWeights::AWE(), ScoreWeights::OSC(),
                                  ScoreWeights::OA(), ScoreWeights::ODC(),
                                  {0.2, 0.5, 0.3}};
  for (size_t m : kSizes) {
    for (const ScoreWeights& pw : presets) {
      std::vector<EcIntervals> fuzz(m);
      std::vector<double> flo(m), fhi(m), falo(m), fahi(m), fdlo(m), fdhi(m);
      for (size_t i = 0; i < m; ++i) {
        flo[i] = fuzz[i].level.lo = FuzzComponent(&rng);
        fhi[i] = fuzz[i].level.hi = FuzzComponent(&rng);
        falo[i] = fuzz[i].availability.lo = FuzzComponent(&rng);
        fahi[i] = fuzz[i].availability.hi = FuzzComponent(&rng);
        fdlo[i] = fuzz[i].derouting.lo = FuzzComponent(&rng);
        fdhi[i] = fuzz[i].derouting.hi = FuzzComponent(&rng);
      }
      std::vector<double> fmin(m), fmax(m);
      simd::ScoreIntervals(flo.data(), fhi.data(), falo.data(), fahi.data(),
                           fdlo.data(), fdhi.data(), m, pw, fmin.data(),
                           fmax.data());
      for (size_t i = 0; i < m; ++i) {
        const ScorePair sc = ComputeScorePair(fuzz[i], pw);
        EXPECT_TRUE(SameOrBothNan(fmin[i], sc.sc_min))
            << "n=" << m << " lane " << i;
        EXPECT_TRUE(SameOrBothNan(fmax[i], sc.sc_max))
            << "n=" << m << " lane " << i;
      }
    }
  }
}

TEST(SimdKernelTest, MidpointsMatchScalarAndScorePairMid) {
  Rng rng(0x1D01ULL);
  for (size_t n : kSizes) {
    std::vector<double> lo(n), hi(n), mid(n);
    for (size_t i = 0; i < n; ++i) {
      lo[i] = FuzzComponent(&rng);
      hi[i] = FuzzComponent(&rng);
    }
    simd::Midpoints(lo.data(), hi.data(), n, mid.data());
    for (size_t i = 0; i < n; ++i) {
      // (a+b)*0.5 must equal ScorePair::Mid()'s (a+b)/2.0 exactly.
      const ScorePair sc{lo[i], hi[i]};
      EXPECT_TRUE(SameOrBothNan(mid[i], sc.Mid())) << "n=" << n;
    }
  }
}

TEST(SimdKernelTest, DescendingKeysBulkMatchesScalar) {
  Rng rng(0x4E75ULL);
  for (size_t n : kSizes) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = FuzzComponent(&rng);
    std::vector<uint64_t> keys(n, 1);
    simd::DescendingKeys(values.data(), n, keys.data());
    for (size_t i = 0; i < n; ++i) {
      // Keys are functions of the input bits: exact equality, NaN included.
      EXPECT_EQ(keys[i], simd::DescendingKey(values[i]))
          << "n=" << n << " lane " << i;
    }
  }
}

TEST(SimdKernelTest, PartialSelectMatchesFullSortWithTies) {
  Rng rng(0x5E1EC7ULL);
  for (size_t n : kSizes) {
    if (n == 0) continue;
    // Heavy duplication: keys drawn from a tiny alphabet force the
    // tiebreak lane to decide most comparisons.
    std::vector<uint64_t> keys(n);
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = rng.NextBounded(4);
      ids[i] = static_cast<uint32_t>(n - 1 - i);  // distinct, reversed
    }
    for (size_t m : {size_t{0}, size_t{1}, n / 2, n - 1, n, n + 3}) {
      std::vector<uint32_t> partial(n), full(n);
      for (uint32_t i = 0; i < n; ++i) partial[i] = full[i] = i;
      simd::PartialSelectDescending(keys.data(), ids.data(), partial.data(),
                                    n, m);
      std::sort(full.begin(), full.end(), [&](uint32_t a, uint32_t b) {
        if (keys[a] != keys[b]) return keys[a] > keys[b];
        return ids[a] < ids[b];
      });
      const size_t prefix = std::min(m, n);
      for (size_t i = 0; i < prefix; ++i) {
        EXPECT_EQ(partial[i], full[i]) << "n=" << n << " m=" << m;
      }
    }
  }
}

TEST(ScoreLanesTest, ReserveAndClearKeepCapacity) {
  simd::ScoreLanes lanes;
  lanes.Reserve(64);
  const size_t cap = lanes.level_lo.capacity();
  EXPECT_GE(cap, 64u);
  for (size_t i = 0; i < 64; ++i) {
    lanes.level_lo.push_back(0.5);
    lanes.ids.push_back(static_cast<uint32_t>(i));
  }
  lanes.Clear();
  EXPECT_TRUE(lanes.level_lo.empty());
  EXPECT_TRUE(lanes.ids.empty());
  EXPECT_EQ(lanes.level_lo.capacity(), cap);
}

}  // namespace
}  // namespace ecocharge
