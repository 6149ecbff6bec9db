#include "core/simd_score.h"

#include <algorithm>

// This translation unit (like score.cc and cknn_ec.cc) is compiled with FP
// contraction disabled, so ScoreIntervals performs exactly the IEEE
// multiply/add sequence ComputeScorePair spells out — the bit-parity
// contract of DESIGN.md §15 depends on neither side fusing into FMA.

namespace ecocharge {
namespace simd {

void ScoreIntervals(const double* level_lo, const double* level_hi,
                    const double* avail_lo, const double* avail_hi,
                    const double* der_lo, const double* der_hi, size_t n,
                    const ScoreWeights& w, double* sc_min, double* sc_max) {
  for (size_t i = 0; i < n; ++i) {
    sc_min[i] = level_lo[i] * w.w_level + avail_lo[i] * w.w_availability +
                (1.0 - der_lo[i]) * w.w_derouting;
    sc_max[i] = level_hi[i] * w.w_level + avail_hi[i] * w.w_availability +
                (1.0 - der_hi[i]) * w.w_derouting;
  }
}

void Midpoints(const double* sc_min, const double* sc_max, size_t n,
               double* mid) {
  // (a + b) * 0.5 is bit-identical to ScorePair::Mid()'s (a + b) / 2.0:
  // both are a single correctly-rounded scaling by a power of two.
  for (size_t i = 0; i < n; ++i) mid[i] = (sc_min[i] + sc_max[i]) * 0.5;
}

void DescendingKeys(const double* values, size_t n, uint64_t* keys) {
  for (size_t i = 0; i < n; ++i) keys[i] = DescendingKey(values[i]);
}

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

}  // namespace

void PartialSelectDescending(const uint64_t* keys, const uint32_t* tiebreak,
                             uint32_t* idx, size_t n, size_t m) {
  if (m == 0 || n == 0) return;
  const DescendingSlotLess less{keys, tiebreak};
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

}  // namespace simd
}  // namespace ecocharge
