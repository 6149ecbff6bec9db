#ifndef ECOCHARGE_TRAFFIC_DEROUTING_H_
#define ECOCHARGE_TRAFFIC_DEROUTING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "energy/charger.h"
#include "graph/shortest_path.h"
#include "traffic/congestion.h"

namespace ecocharge {

/// \brief The derouting estimated component D for one charger.
///
/// Extra distance = d(m -> b) + min(d(b -> r_i), d(b -> r_{i+1})) minus the
/// on-route distance the vehicle would have covered anyway — the paper's
/// "reach the charger and return to the scheduled trip, whichever return
/// point deroutes less". eta_s is the estimated drive time m -> b, which
/// anchors the L and A forecasts.
struct DeroutingEstimate {
  double extra_distance_min_m = 0.0;  ///< optimistic (clear traffic) bound
  double extra_distance_max_m = 0.0;  ///< pessimistic bound
  double eta_s = 0.0;                 ///< estimated time of arrival at b
};

/// \brief Vehicle-side query context for derouting computations.
struct DeroutingQuery {
  Point vehicle_position;
  NodeId vehicle_node = kInvalidNode;  ///< snap of vehicle_position
  Point return_point_a;                ///< end of current segment p_i
  Point return_point_b;                ///< end of next segment p_{i+1}
  NodeId return_node_a = kInvalidNode;
  NodeId return_node_b = kInvalidNode;
  SimTime now = 0.0;
};

/// Handle to one refinement candidate in a batched exact call: a borrowed
/// fleet entry (the fleet vector outlives every query).
using ChargerRef = const EvCharger*;

/// \brief Reusable scratch of the batched exact-derouting path.
///
/// Owned by the caller (the query pipeline keeps one inside QueryContext,
/// the serving runtime pre-sizes one per worker), so a warm ExactBatch
/// performs zero heap allocations.
struct DeroutingBatchScratch {
  std::vector<NodeId> targets;               ///< batch target node ids
  std::vector<ChargerRef> chargers;          ///< caller-side batch staging
  std::vector<DeroutingEstimate> estimates;  ///< batch output

  /// Pre-grows every buffer to `n` candidates (+1 for the direct-cost
  /// target) so the first batch is already allocation-free.
  void Reserve(size_t n) {
    targets.reserve(n + 1);
    chargers.reserve(n);
    estimates.reserve(n);
  }
};

/// \brief What one ExactBatch call did — feeds the pipeline.batch_* and
/// warm-start metrics.
struct BatchSweepStats {
  size_t targets = 0;       ///< chargers in the batch
  bool warm_start = false;  ///< the backward sweep was resumed, not rebuilt
};

/// \brief Computes derouting costs in two fidelities.
///
/// Estimate(): closed-form from Euclidean distances x a road-detour factor
/// x the congestion band — O(1) per charger, used by the CkNN-EC filtering
/// phase. ExactBatch(): the refinement phase's network-exact costs by
/// time-aware Dijkstra sweeps. Exact(): the per-charger Dijkstra oracle
/// behind the Brute-Force baseline and ground truth (this is where the
/// baselines spend their CPU time, matching the paper's cost profile).
///
/// Exact costs are priced under the realized traffic at the query's
/// `now`. The exact path decomposes into one forward sweep from the
/// vehicle node (outbound legs d(m -> b)) and one backward sweep over the
/// in-adjacency seeded from both return points (return legs
/// min d(b -> r_i) for every charger, plus the on-route direct cost
/// d(m -> {r_a, r_b}) for free at the vehicle node). The backward sweep is
/// resumable and memoized on (r_a, r_b, now): a Brute-Force or ground-truth
/// loop of Exact() calls over one query, and a batch after them, reuse its
/// settled costs instead of re-running it per charger. Exact() and
/// ExactBatch() share the same sweep primitives and therefore produce
/// bit-identical costs — a batch is exactly N per-candidate calls fused.
class DeroutingService {
 public:
  /// \param detour_factor typical network/Euclidean distance ratio (~1.3)
  DeroutingService(std::shared_ptr<const RoadNetwork> network,
                   const CongestionModel* congestion,
                   double detour_factor = 1.3);

  /// O(1) interval estimate; fetches the congestion band itself.
  DeroutingEstimate Estimate(const DeroutingQuery& query,
                             const EvCharger& charger) const;

  /// O(1) interval estimate with a caller-provided congestion band (the
  /// EC estimator passes the EIS-cached band so the architecture's traffic
  /// API is exercised).
  DeroutingEstimate Estimate(const DeroutingQuery& query,
                             const EvCharger& charger,
                             const CongestionModel::Band& band) const;

  /// The same estimate with `on_route` = OnRouteDistance(query) supplied
  /// by the caller, so a batch over one query computes it once.
  DeroutingEstimate Estimate(const DeroutingQuery& query,
                             const EvCharger& charger,
                             const CongestionModel::Band& band,
                             double on_route) const;

  /// Euclidean distance the vehicle covers on its route anyway: to the
  /// nearer of the two return points. Depends only on the query.
  static double OnRouteDistance(const DeroutingQuery& query);

  /// Network-exact cost under realized traffic (min == max).
  DeroutingEstimate Exact(const DeroutingQuery& query,
                          const EvCharger& charger);

  /// Batched form of Exact(): one forward multi-target sweep covers every
  /// charger's outbound leg, one (possibly warm) backward extension covers
  /// every return leg and the direct cost. Appends one estimate per
  /// charger to `*out` in input order, bit-identical to calling Exact()
  /// per charger. `scratch` supplies the target buffer (typically
  /// `&scratch->estimates` is passed as `out`); a warm call allocates
  /// nothing.
  BatchSweepStats ExactBatch(const DeroutingQuery& query,
                             std::span<const ChargerRef> chargers,
                             DeroutingBatchScratch* scratch,
                             std::vector<DeroutingEstimate>* out);

  /// Cumulative backward-sweep accounting: how many exact calls reused the
  /// settled backward costs vs. rebuilding them. Warm hits require the same
  /// return pair at the same `now`.
  uint64_t warm_start_hits() const { return warm_start_hits_; }
  uint64_t backward_sweep_starts() const { return backward_sweep_starts_; }

  /// Cumulative outbound Dijkstra sweeps: one per Exact() call that
  /// reaches the search, one per ExactBatch() call with a valid vehicle
  /// node. A work count that does not depend on timing.
  uint64_t forward_sweeps() const { return forward_sweeps_; }

  /// Nodes settled by the last outbound Dijkstra sweep: Exact()'s
  /// single-target search or ExactBatch()'s multi-target one. A work
  /// count that does not depend on timing, for benchmarks.
  size_t last_forward_settled() const { return search_.last_settled_count(); }

  /// Nodes settled by the last backward extension: the return-leg sweep
  /// of Exact() or ExactBatch(), counting only what that call added to a
  /// warm sweep. A work count that does not depend on timing.
  size_t last_backward_settled() const { return last_backward_settled_; }

 private:
  /// Resumes (warm hit) or restarts the backward sweep for the return pair
  /// at cost time `now`; returns true on a warm hit.
  bool EnsureBackwardSweep(NodeId ra, NodeId rb, SimTime now);

  std::shared_ptr<const RoadNetwork> network_;
  const CongestionModel* congestion_;
  double detour_factor_;
  DijkstraSearch search_;       ///< forward sweeps (outbound legs)
  DijkstraSearch back_search_;  ///< resumable backward sweep (return legs)

  // Warm-start memo: the backward sweep is valid while the return pair and
  // the cost time are unchanged. Settled costs persist inside back_search_'s
  // epoch; invalidation is just a key mismatch.
  struct BackwardKey {
    NodeId ra = kInvalidNode;
    NodeId rb = kInvalidNode;
    SimTime now = -1.0;
    bool operator==(const BackwardKey&) const = default;
  };
  BackwardKey back_key_;
  uint64_t warm_start_hits_ = 0;
  uint64_t backward_sweep_starts_ = 0;
  uint64_t forward_sweeps_ = 0;
  size_t last_backward_settled_ = 0;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_TRAFFIC_DEROUTING_H_
