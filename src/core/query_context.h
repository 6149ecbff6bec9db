#ifndef ECOCHARGE_CORE_QUERY_CONTEXT_H_
#define ECOCHARGE_CORE_QUERY_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "core/offering_table.h"
#include "core/simd_score.h"
#include "spatial/spatial_index.h"
#include "traffic/derouting.h"

namespace ecocharge {

/// \brief A scored candidate inside the CkNN-EC pipeline.
struct ScoredCandidate {
  ChargerId charger_id = 0;
  ScorePair score;
  EcIntervals ecs;

  /// The Offering Table row this candidate becomes.
  OfferingEntry Entry() const { return {charger_id, score, ecs, ecs.eta_s}; }
};

/// \brief Reusable per-query scratch for the whole ranking pipeline.
///
/// Every stage of a CkNN-EC query (spatial filtering, EC scoring, the
/// eq. 6 iterative-deepening intersection, refinement) writes its working
/// set into one of these buffers instead of a fresh vector, so a caller
/// that keeps a context alive across queries reaches a steady state where
/// an offering-table generation performs zero heap allocations — including
/// the exact network-derouting refinement, whose sweep frontier lives in
/// the estimator's search workspace and whose batch staging lives in the
/// `derouting` scratch below. Buffers grow to the workload's high-water
/// mark and stay.
///
/// A context carries no query results across calls — only capacity. It is
/// not thread-safe; give each worker thread its own context. Every Ranker
/// owns a fallback context, so the allocating Ranker::Rank() convenience
/// keeps this reuse without the caller managing anything.
struct QueryContext {
  IndexScratch spatial;  ///< index traversal scratch (stacks, kNN heaps)

  std::vector<Neighbor> neighbors;      ///< filtering: range/kNN results
  std::vector<ChargerId> candidates;    ///< filtering: surviving charger ids
  /// Filtering: one bit per indexed charger, set per neighbor and read
  /// back in ascending id order; every word is zero between queries.
  std::vector<uint64_t> candidate_bits;
  std::vector<ScoredCandidate> scored;  ///< scoring: the candidate pool
  std::vector<ScoredCandidate> selected;  ///< intersection winners
  std::vector<ScoredCandidate> adapted;   ///< pool = k table to cache

  /// Struct-of-arrays candidate lanes for the filter/score path (DESIGN.md
  /// §15): the columnar estimate writes the EC intervals in here once per
  /// query; the score kernels stream over the lanes. Grows to the
  /// high-water mark like every other buffer.
  simd::ScoreLanes lanes;

  /// Batched exact-derouting scratch: target ids, charger refs, and the
  /// per-candidate estimates of the one-sweep-per-segment refinement.
  DeroutingBatchScratch derouting;

  // Eq. 6 rank orders and the membership marks replacing the per-depth
  // hash set (mark_epoch stamps entries instead of clearing the array).
  // order_min/order_max hold the pool's slots with their first
  // `ordered_depth` entries sorted best first by each ranking; keying the
  // lanes resets it, so every selection over the same keys shares them.
  std::vector<uint32_t> order_min;
  std::vector<uint32_t> order_max;
  size_t ordered_depth = 0;
  std::vector<uint32_t> common;
  std::vector<uint64_t> member_mark;
  uint64_t mark_epoch = 0;

  std::vector<OfferingEntry> entries;  ///< refinement output scratch
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_QUERY_CONTEXT_H_
