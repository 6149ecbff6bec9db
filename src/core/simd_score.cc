#include "core/simd_score.h"

#include <algorithm>

#if defined(ECOCHARGE_SIMD_AVX2)
#include <immintrin.h>
#elif defined(ECOCHARGE_SIMD_SSE2)
#include <emmintrin.h>
#elif defined(ECOCHARGE_SIMD_NEON)
#include <arm_neon.h>
#endif

// This translation unit (like score.cc and cknn_ec.cc) is compiled with FP
// contraction disabled, so every kernel below performs exactly the IEEE
// multiply/add sequence the scalar reference spells out — the bit-parity
// contract of DESIGN.md §15 depends on neither side fusing into FMA.

namespace ecocharge {
namespace simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels: the parity oracle. These are the semantics; the
// vector bodies below must reproduce them bit for bit (NaN lanes: same
// mask/ordering decisions; payload bits may differ, which the property test
// accounts for).
// ---------------------------------------------------------------------------

void ScoreIntervalsScalar(const double* level_lo, const double* level_hi,
                          const double* avail_lo, const double* avail_hi,
                          const double* der_lo, const double* der_hi,
                          size_t n, const ScoreWeights& w, double* sc_min,
                          double* sc_max) {
  for (size_t i = 0; i < n; ++i) {
    sc_min[i] = level_lo[i] * w.w_level + avail_lo[i] * w.w_availability +
                (1.0 - der_lo[i]) * w.w_derouting;
    sc_max[i] = level_hi[i] * w.w_level + avail_hi[i] * w.w_availability +
                (1.0 - der_hi[i]) * w.w_derouting;
  }
}

void MidpointsScalar(const double* sc_min, const double* sc_max, size_t n,
                     double* mid) {
  // (a + b) * 0.5 is bit-identical to ScorePair::Mid()'s (a + b) / 2.0:
  // both are a single correctly-rounded scaling by a power of two.
  for (size_t i = 0; i < n; ++i) mid[i] = (sc_min[i] + sc_max[i]) * 0.5;
}

void LeMaskScalar(const double* values, double bound, size_t n,
                  uint8_t* mask) {
  // NaN <= bound is false, so NaN lanes prune — identical to the vector
  // compare, whose unordered lanes yield a zero mask.
  for (size_t i = 0; i < n; ++i) mask[i] = values[i] <= bound ? 1 : 0;
}

void DescendingKeysScalar(const double* values, size_t n, uint64_t* keys) {
  for (size_t i = 0; i < n; ++i) keys[i] = DescendingKey(values[i]);
}

// ---------------------------------------------------------------------------
// Vector kernels.
// ---------------------------------------------------------------------------

#if defined(ECOCHARGE_SIMD_AVX2)

void ScoreIntervals(const double* level_lo, const double* level_hi,
                    const double* avail_lo, const double* avail_hi,
                    const double* der_lo, const double* der_hi, size_t n,
                    const ScoreWeights& w, double* sc_min, double* sc_max) {
  const __m256d w1 = _mm256_set1_pd(w.w_level);
  const __m256d w2 = _mm256_set1_pd(w.w_availability);
  const __m256d w3 = _mm256_set1_pd(w.w_derouting);
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d lmin = _mm256_mul_pd(_mm256_loadu_pd(level_lo + i), w1);
    const __m256d amin = _mm256_mul_pd(_mm256_loadu_pd(avail_lo + i), w2);
    const __m256d dmin = _mm256_mul_pd(
        _mm256_sub_pd(one, _mm256_loadu_pd(der_lo + i)), w3);
    _mm256_storeu_pd(sc_min + i,
                     _mm256_add_pd(_mm256_add_pd(lmin, amin), dmin));
    const __m256d lmax = _mm256_mul_pd(_mm256_loadu_pd(level_hi + i), w1);
    const __m256d amax = _mm256_mul_pd(_mm256_loadu_pd(avail_hi + i), w2);
    const __m256d dmax = _mm256_mul_pd(
        _mm256_sub_pd(one, _mm256_loadu_pd(der_hi + i)), w3);
    _mm256_storeu_pd(sc_max + i,
                     _mm256_add_pd(_mm256_add_pd(lmax, amax), dmax));
  }
  ScoreIntervalsScalar(level_lo + i, level_hi + i, avail_lo + i, avail_hi + i,
                       der_lo + i, der_hi + i, n - i, w, sc_min + i,
                       sc_max + i);
}

void Midpoints(const double* sc_min, const double* sc_max, size_t n,
               double* mid) {
  const __m256d half = _mm256_set1_pd(0.5);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sum = _mm256_add_pd(_mm256_loadu_pd(sc_min + i),
                                      _mm256_loadu_pd(sc_max + i));
    _mm256_storeu_pd(mid + i, _mm256_mul_pd(sum, half));
  }
  MidpointsScalar(sc_min + i, sc_max + i, n - i, mid + i);
}

void LeMask(const double* values, double bound, size_t n, uint8_t* mask) {
  const __m256d b = _mm256_set1_pd(bound);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // CMP_LE_OQ: ordered less-equal, NaN lanes produce 0 — matches scalar.
    const __m256d cmp = _mm256_cmp_pd(_mm256_loadu_pd(values + i), b,
                                      _CMP_LE_OQ);
    const int bits = _mm256_movemask_pd(cmp);
    mask[i + 0] = static_cast<uint8_t>(bits & 1);
    mask[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    mask[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);
    mask[i + 3] = static_cast<uint8_t>((bits >> 3) & 1);
  }
  LeMaskScalar(values + i, bound, n - i, mask + i);
}

void DescendingKeys(const double* values, size_t n, uint64_t* keys) {
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<int64_t>(0x8000000000000000ull));
  const __m256i mant = _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll);
  const __m256i inf = _mm256_set1_epi64x(0x7FF0000000000000ll);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i bits = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i));
    // neg = all-ones where the sign bit is set (signed compare vs 0).
    const __m256i neg = _mm256_cmpgt_epi64(zero, bits);
    const __m256i flip = _mm256_or_si256(sign, _mm256_and_si256(neg, mant));
    __m256i key = _mm256_xor_si256(bits, flip);
    // NaN iff (bits & 0x7FF..F) > 0x7FF0'...'0000; the masked value is
    // non-negative, so the signed compare is exact. NaN keys clamp to 0.
    const __m256i mag = _mm256_and_si256(bits, mant);
    const __m256i is_nan = _mm256_cmpgt_epi64(mag, inf);
    key = _mm256_andnot_si256(is_nan, key);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i), key);
  }
  DescendingKeysScalar(values + i, n - i, keys + i);
}

#elif defined(ECOCHARGE_SIMD_SSE2)

void ScoreIntervals(const double* level_lo, const double* level_hi,
                    const double* avail_lo, const double* avail_hi,
                    const double* der_lo, const double* der_hi, size_t n,
                    const ScoreWeights& w, double* sc_min, double* sc_max) {
  const __m128d w1 = _mm_set1_pd(w.w_level);
  const __m128d w2 = _mm_set1_pd(w.w_availability);
  const __m128d w3 = _mm_set1_pd(w.w_derouting);
  const __m128d one = _mm_set1_pd(1.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d lmin = _mm_mul_pd(_mm_loadu_pd(level_lo + i), w1);
    const __m128d amin = _mm_mul_pd(_mm_loadu_pd(avail_lo + i), w2);
    const __m128d dmin =
        _mm_mul_pd(_mm_sub_pd(one, _mm_loadu_pd(der_lo + i)), w3);
    _mm_storeu_pd(sc_min + i, _mm_add_pd(_mm_add_pd(lmin, amin), dmin));
    const __m128d lmax = _mm_mul_pd(_mm_loadu_pd(level_hi + i), w1);
    const __m128d amax = _mm_mul_pd(_mm_loadu_pd(avail_hi + i), w2);
    const __m128d dmax =
        _mm_mul_pd(_mm_sub_pd(one, _mm_loadu_pd(der_hi + i)), w3);
    _mm_storeu_pd(sc_max + i, _mm_add_pd(_mm_add_pd(lmax, amax), dmax));
  }
  ScoreIntervalsScalar(level_lo + i, level_hi + i, avail_lo + i, avail_hi + i,
                       der_lo + i, der_hi + i, n - i, w, sc_min + i,
                       sc_max + i);
}

void Midpoints(const double* sc_min, const double* sc_max, size_t n,
               double* mid) {
  const __m128d half = _mm_set1_pd(0.5);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d sum =
        _mm_add_pd(_mm_loadu_pd(sc_min + i), _mm_loadu_pd(sc_max + i));
    _mm_storeu_pd(mid + i, _mm_mul_pd(sum, half));
  }
  MidpointsScalar(sc_min + i, sc_max + i, n - i, mid + i);
}

void LeMask(const double* values, double bound, size_t n, uint8_t* mask) {
  const __m128d b = _mm_set1_pd(bound);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // cmple: ordered less-equal, NaN lanes produce 0 — matches scalar.
    const int bits = _mm_movemask_pd(_mm_cmple_pd(_mm_loadu_pd(values + i), b));
    mask[i + 0] = static_cast<uint8_t>(bits & 1);
    mask[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
  }
  LeMaskScalar(values + i, bound, n - i, mask + i);
}

void DescendingKeys(const double* values, size_t n, uint64_t* keys) {
  // SSE2 has no 64-bit integer compare; the scalar key transform is already
  // a handful of ALU ops, so the bulk form just loops it. The scoring and
  // masking kernels above carry the vector win on this ISA.
  DescendingKeysScalar(values, n, keys);
}

#elif defined(ECOCHARGE_SIMD_NEON)

void ScoreIntervals(const double* level_lo, const double* level_hi,
                    const double* avail_lo, const double* avail_hi,
                    const double* der_lo, const double* der_hi, size_t n,
                    const ScoreWeights& w, double* sc_min, double* sc_max) {
  const float64x2_t w1 = vdupq_n_f64(w.w_level);
  const float64x2_t w2 = vdupq_n_f64(w.w_availability);
  const float64x2_t w3 = vdupq_n_f64(w.w_derouting);
  const float64x2_t one = vdupq_n_f64(1.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t lmin = vmulq_f64(vld1q_f64(level_lo + i), w1);
    const float64x2_t amin = vmulq_f64(vld1q_f64(avail_lo + i), w2);
    const float64x2_t dmin =
        vmulq_f64(vsubq_f64(one, vld1q_f64(der_lo + i)), w3);
    vst1q_f64(sc_min + i, vaddq_f64(vaddq_f64(lmin, amin), dmin));
    const float64x2_t lmax = vmulq_f64(vld1q_f64(level_hi + i), w1);
    const float64x2_t amax = vmulq_f64(vld1q_f64(avail_hi + i), w2);
    const float64x2_t dmax =
        vmulq_f64(vsubq_f64(one, vld1q_f64(der_hi + i)), w3);
    vst1q_f64(sc_max + i, vaddq_f64(vaddq_f64(lmax, amax), dmax));
  }
  ScoreIntervalsScalar(level_lo + i, level_hi + i, avail_lo + i, avail_hi + i,
                       der_lo + i, der_hi + i, n - i, w, sc_min + i,
                       sc_max + i);
}

void Midpoints(const double* sc_min, const double* sc_max, size_t n,
               double* mid) {
  const float64x2_t half = vdupq_n_f64(0.5);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t sum =
        vaddq_f64(vld1q_f64(sc_min + i), vld1q_f64(sc_max + i));
    vst1q_f64(mid + i, vmulq_f64(sum, half));
  }
  MidpointsScalar(sc_min + i, sc_max + i, n - i, mid + i);
}

void LeMask(const double* values, double bound, size_t n, uint8_t* mask) {
  const float64x2_t b = vdupq_n_f64(bound);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t cmp = vcleq_f64(vld1q_f64(values + i), b);
    mask[i + 0] = static_cast<uint8_t>(vgetq_lane_u64(cmp, 0) & 1);
    mask[i + 1] = static_cast<uint8_t>(vgetq_lane_u64(cmp, 1) & 1);
  }
  LeMaskScalar(values + i, bound, n - i, mask + i);
}

void DescendingKeys(const double* values, size_t n, uint64_t* keys) {
  DescendingKeysScalar(values, n, keys);
}

#else  // ECOCHARGE_SIMD_SCALAR

void ScoreIntervals(const double* level_lo, const double* level_hi,
                    const double* avail_lo, const double* avail_hi,
                    const double* der_lo, const double* der_hi, size_t n,
                    const ScoreWeights& w, double* sc_min, double* sc_max) {
  ScoreIntervalsScalar(level_lo, level_hi, avail_lo, avail_hi, der_lo, der_hi,
                       n, w, sc_min, sc_max);
}

void Midpoints(const double* sc_min, const double* sc_max, size_t n,
               double* mid) {
  MidpointsScalar(sc_min, sc_max, n, mid);
}

void LeMask(const double* values, double bound, size_t n, uint8_t* mask) {
  LeMaskScalar(values, bound, n, mask);
}

void DescendingKeys(const double* values, size_t n, uint64_t* keys) {
  DescendingKeysScalar(values, n, keys);
}

#endif

// ---------------------------------------------------------------------------
// Partial selection. Both the scalar and the SIMD pipeline rank through
// these — ordering parity between the two is by construction, not by test.
// ---------------------------------------------------------------------------

namespace {

/// (key desc, tiebreak asc): a strict total order on slots — uint64 keys
/// carry no NaN, and the tiebreak lane is unique per slot. Null tiebreak
/// ties by the slot index itself.
struct DescendingSlotLess {
  const uint64_t* keys;
  const uint32_t* tiebreak;
  bool operator()(uint32_t a, uint32_t b) const {
    if (keys[a] != keys[b]) return keys[a] > keys[b];
    return (tiebreak ? tiebreak[a] : a) < (tiebreak ? tiebreak[b] : b);
  }
};

template <typename Less>
void PartialSelect(uint32_t* idx, size_t n, size_t m, Less less) {
  if (m == 0 || n == 0) return;
  if (m < n) {
    // nth_element partitions in O(n); only the selected prefix then pays
    // for ordering. The total order makes the prefix *set and order*
    // identical to full-sort-then-truncate.
    std::nth_element(idx, idx + (m - 1), idx + n, less);
    std::sort(idx, idx + m, less);
  } else {
    std::sort(idx, idx + n, less);
  }
}

}  // namespace

void PartialSelectDescending(const uint64_t* keys, const uint32_t* tiebreak,
                             uint32_t* idx, size_t n, size_t m) {
  PartialSelect(idx, n, m, DescendingSlotLess{keys, tiebreak});
}

}  // namespace simd
}  // namespace ecocharge
