#ifndef ECOCHARGE_CORE_SIMD_SCORE_H_
#define ECOCHARGE_CORE_SIMD_SCORE_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/score.h"

namespace ecocharge {
namespace simd {

/// \brief Total-order sort key for a score value, descending-friendly.
///
/// Maps doubles to uint64 such that a < b  <=>  Key(a) < Key(b) for all
/// ordered doubles, with two deliberate pins (the determinism contract of
/// DESIGN.md §15):
///  - NaN maps to 0, i.e. BELOW every real value including -inf: a
///    candidate whose score degraded all the way to NaN ranks strictly
///    last, never first, and never trips the strict-weak-ordering UB a
///    naive `double` comparator has.
///  - -0.0 maps below +0.0 (they differ in one bit; any deterministic
///    total order must pick a side).
/// Integer keys make every downstream comparison branch-light and give
/// every ranking one tie order.
inline uint64_t DescendingKey(double v) {
  if (std::isnan(v)) return 0;
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const uint64_t neg = static_cast<int64_t>(bits) < 0 ? ~uint64_t{0} : 0;
  return bits ^ (0x8000000000000000ull | (neg & 0x7FFFFFFFFFFFFFFFull));
}

/// \brief Struct-of-arrays candidate lanes for the filter/score phase.
///
/// The columnar estimate writes one slot per candidate: the six EC
/// interval endpoints and the charger id (the deterministic tiebreak
/// lane). The kernels below then produce the SC_min/SC_max/mid score
/// lanes and their total-order keys in bulk. Buffers are plain vectors
/// that grow to the workload's high-water mark and stay — a warm
/// QueryContext performs zero heap allocations per query, SoA lanes
/// included.
struct ScoreLanes {
  std::vector<double> level_lo, level_hi;
  std::vector<double> avail_lo, avail_hi;
  std::vector<double> der_lo, der_hi;
  std::vector<uint32_t> ids;  ///< charger ids (sort tiebreak lane)
  std::vector<double> sc_min, sc_max, mid;
  /// Total-order keys of the three rankings eq. 6 consumes (by SC_min, by
  /// SC_max, by midpoint) — separate lanes because the intersection needs
  /// the first two alive at once.
  std::vector<uint64_t> keys_min, keys_max, keys_mid;

  /// The bound stage's lanes (DESIGN.md §15): one slot per candidate of
  /// the request, in candidate order, filled before any forecast is
  /// fetched. A different slot space from the lanes above, which hold
  /// only the scored candidates, in the order they were fetched.
  std::vector<uint32_t> cand_ids;
  std::vector<double> cand_der_lo, cand_der_hi;  ///< the exact D interval
  std::vector<double> cand_level_ub;  ///< L upper bound: EIS ceiling share
  /// Keys of each candidate's SC_min and SC_max upper bounds.
  std::vector<uint64_t> bound_min, bound_max;
  std::vector<uint8_t> cand_scored;  ///< 1 once a round has taken it
  /// One round's candidate slots in ascending order (the order they go to
  /// the EIS in), and samples of both bound keys that pick a round's cuts.
  std::vector<uint32_t> round;
  std::vector<uint64_t> sample_min, sample_max;

  /// Pre-grows every lane to `n` slots (capacity only; sizes are set by
  /// each query's gather). The serving runtime calls this per worker so
  /// the first ranked query already runs allocation-free.
  void Reserve(size_t n) {
    for (std::vector<double>* lane :
         {&level_lo, &level_hi, &avail_lo, &avail_hi, &der_lo, &der_hi,
          &sc_min, &sc_max, &mid, &cand_der_lo, &cand_der_hi,
          &cand_level_ub}) {
      lane->reserve(n);
    }
    for (std::vector<uint32_t>* lane : {&ids, &cand_ids, &round}) {
      lane->reserve(n);
    }
    for (std::vector<uint64_t>* lane :
         {&keys_min, &keys_max, &keys_mid, &bound_min, &bound_max,
          &sample_min, &sample_max}) {
      lane->reserve(n);
    }
    cand_scored.reserve(n);
  }

  /// Drops per-query contents, keeping capacity (called by the gather).
  void Clear() {
    for (std::vector<double>* lane :
         {&level_lo, &level_hi, &avail_lo, &avail_hi, &der_lo, &der_hi,
          &sc_min, &sc_max, &mid, &cand_der_lo, &cand_der_hi,
          &cand_level_ub}) {
      lane->clear();
    }
    for (std::vector<uint32_t>* lane : {&ids, &cand_ids, &round}) {
      lane->clear();
    }
    for (std::vector<uint64_t>* lane :
         {&keys_min, &keys_max, &keys_mid, &bound_min, &bound_max,
          &sample_min, &sample_max}) {
      lane->clear();
    }
    cand_scored.clear();
  }
};

/// \brief Eq. (4)/(5) over SoA lanes:
///   sc_min[i] = l_lo[i] w1 + a_lo[i] w2 + (1 - d_lo[i]) w3
///   sc_max[i] = l_hi[i] w1 + a_hi[i] w2 + (1 - d_hi[i]) w3
/// Bit-identical to per-candidate ComputeScorePair: both perform the same
/// IEEE multiply/add sequence per lane (this translation unit and
/// score.cc are built with FP contraction off, so neither side fuses).
/// Output pointers must not alias the inputs.
void ScoreIntervals(const double* level_lo, const double* level_hi,
                    const double* avail_lo, const double* avail_hi,
                    const double* der_lo, const double* der_hi, size_t n,
                    const ScoreWeights& w, double* sc_min, double* sc_max);

/// mid[i] = (sc_min[i] + sc_max[i]) * 0.5 — identical bits to
/// ScorePair::Mid()'s (a + b) / 2.0 (division by two is exact scaling).
void Midpoints(const double* sc_min, const double* sc_max, size_t n,
               double* mid);

/// keys[i] = DescendingKey(values[i]) in bulk.
void DescendingKeys(const double* values, size_t n, uint64_t* keys);

/// \brief One-pass partial top-m select over total-order keys.
///
/// Reorders `idx[0..n)` (any permutation of candidate slots) so that
/// `idx[0..m)` holds the m best slots by (key descending, tiebreak
/// ascending), sorted in that order; the suffix order is unspecified.
/// m >= n sorts all n. A bounded heap of the first m slots scans the rest
/// once, rejecting most slots with one key compare against its root:
/// O(n + m log m) when few slots displace the root, O(n log m) at worst.
/// Because (key, tiebreak) is a strict total order — integer compares, no
/// NaN branches — the selected prefix is unique: a partial select is
/// bit-identical to a full sort followed by truncation on every standard
/// library. `tiebreak` is typically the charger-id lane; a null
/// `tiebreak` ties by the slot index itself.
void PartialSelectDescending(const uint64_t* keys, const uint32_t* tiebreak,
                             uint32_t* idx, size_t n, size_t m);

}  // namespace simd
}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_SIMD_SCORE_H_
