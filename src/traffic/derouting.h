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

class ChIndex;
class ChQuery;
class ChCustomizationCache;
class ChProfileQuery;
struct ChCustomization;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// \brief Which engine answers exact derouting queries.
///
/// kExact runs the PR 5 Dijkstra batch sweeps (the parity oracle); kCh
/// answers point-to-point legs over a contraction hierarchy and refolds
/// each unpacked path in the oracle's accumulation order, so both backends
/// emit bit-identical estimates.
enum class DeroutingBackend : uint8_t {
  kExact = 0,
  kCh = 1,
};

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
/// phase. Exact()/ExactBatch(): time-aware Dijkstra sweeps over the network
/// — used by the refinement phase and by the Brute-Force oracle (this is
/// where the baselines spend their CPU time, matching the paper's cost
/// profile).
///
/// The exact path decomposes into one forward sweep from the vehicle node
/// (outbound legs d(m -> b)) and one backward sweep over the in-adjacency
/// seeded from both return points (return legs min d(b -> r_i) for every
/// charger, plus the on-route direct cost d(m -> {r_a, r_b}) for free at
/// the vehicle node). The backward sweep is resumable and memoized on
/// (r_a, r_b, cost time): Brute-Force loops, the batched refinement, and
/// the recomputation points of a continuous query all reuse its settled
/// costs instead of re-running it per charger. Exact() and ExactBatch()
/// share the same sweep primitives and therefore produce bit-identical
/// costs — a batch is exactly N per-candidate calls fused.
class DeroutingService {
 public:
  /// \param detour_factor typical network/Euclidean distance ratio (~1.3)
  /// \param exact_time_bucket_s when > 0, exact costs are computed at
  ///        `now` quantized down to this bucket, so every query inside one
  ///        bucket shares edge costs — the cross-segment warm-start. 0
  ///        (default) evaluates at the query's exact `now`. The natural
  ///        bucket is CongestionModel::kNoiseBucketSeconds.
  DeroutingService(std::shared_ptr<const RoadNetwork> network,
                   const CongestionModel* congestion,
                   double detour_factor = 1.3,
                   double exact_time_bucket_s = 0.0);
  ~DeroutingService();

  /// O(1) interval estimate; fetches the congestion band itself.
  DeroutingEstimate Estimate(const DeroutingQuery& query,
                             const EvCharger& charger) const;

  /// O(1) interval estimate with a caller-provided congestion band (the
  /// EC estimator passes the EIS-cached band so the architecture's traffic
  /// API is exercised).
  DeroutingEstimate Estimate(const DeroutingQuery& query,
                             const EvCharger& charger,
                             const CongestionModel::Band& band) const;

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

  /// Cruise speed used to turn distances into ETAs, m/s (arterial pace
  /// scaled by current congestion).
  double CruiseSpeed(SimTime t) const;

  /// Changes the exact-cost time bucket; resets the warm-start memo (costs
  /// computed under a different bucket are not comparable).
  void set_exact_time_bucket_s(double bucket_s) {
    exact_time_bucket_s_ = bucket_s;
    back_key_ = BackwardKey{};
  }
  double exact_time_bucket_s() const { return exact_time_bucket_s_; }

  /// Cumulative backward-sweep accounting: how many exact calls reused the
  /// settled backward costs vs. rebuilding them. Warm hits require the same
  /// return pair at the same (bucketed) cost time.
  uint64_t warm_start_hits() const { return warm_start_hits_; }
  uint64_t backward_sweep_starts() const { return backward_sweep_starts_; }

  /// Switches Exact()/ExactBatch()/EtaWindow() to the contraction-
  /// hierarchy backend over `cache->index()`, which must be built over this
  /// service's network. Every customized plane comes from `cache` (not
  /// owned, must outlive the service), so N workers sharing one cache
  /// customize a congestion bucket once total. nullptr reverts to the
  /// Dijkstra sweeps. The CH backend does not use the backward-sweep memo,
  /// so warm-start counters stay flat under it.
  void set_ch(ChCustomizationCache* cache);

  /// \brief Profile (ETA-window) query: the estimated drive time from the
  /// vehicle to `charger` under `buckets` consecutive congestion-bucket
  /// weight planes, in one elimination-tree search.
  ///
  /// `(*etas_s)[j]` equals the `eta_s` an exact CH call evaluated at
  /// `ExactCostTime(query.now) + j * exact_time_bucket_s()` would produce
  /// (bit-identical: per-lane labels, unpacked paths, and oracle-order
  /// refolds match the single-plane path), kInfiniteCost where
  /// unreachable. Returns false — leaving `*etas_s` empty — when the CH
  /// backend is off, `buckets` is 0, multi-bucket windows are requested
  /// without time bucketing, a node is out of range, or the hierarchy
  /// rejects the space builder; callers fall back to per-bucket Exact().
  bool EtaWindow(const DeroutingQuery& query, const EvCharger& charger,
                 size_t buckets, std::vector<double>* etas_s);

  /// Mirrors this worker's customization sweeps onto `registry`
  /// (`ch.customizations`); survives set_ch. Null detaches.
  void AttachChMetrics(obs::MetricsRegistry* registry);
  const ChIndex* ch() const { return ch_; }
  /// The point-query workspace every CH plane this service reads is
  /// fetched through; null on the Dijkstra backend.
  const ChQuery* ch_query() const { return ch_query_.get(); }
  DeroutingBackend backend() const {
    return ch_ != nullptr ? DeroutingBackend::kCh : DeroutingBackend::kExact;
  }

  const RoadNetwork& network() const { return *network_; }

 private:
  /// The time exact edge costs are evaluated at: `now`, or `now` floored
  /// to the bucket when warm-start bucketing is on.
  SimTime ExactCostTime(SimTime now) const;

  /// Resumes (warm hit) or restarts the backward sweep for the return pair
  /// at cost time `tau`; returns true on a warm hit.
  bool EnsureBackwardSweep(NodeId ra, NodeId rb, SimTime tau);

  /// Space-sharing CH batch: builds the vehicle/return elimination-tree
  /// spaces once and meets each charger's two spaces against them. Returns
  /// false (with `*out` cleared) when the hierarchy rejects the space
  /// builder; ExactBatch then falls back to per-leg bidirectional searches.
  bool ChBatchExact(NodeId m, NodeId ra, NodeId rb,
                    std::span<const ChargerRef> chargers, SimTime tau,
                    std::vector<DeroutingEstimate>* out);

  std::shared_ptr<const RoadNetwork> network_;
  const CongestionModel* congestion_;
  double detour_factor_;
  double exact_time_bucket_s_;
  DijkstraSearch search_;       ///< forward sweeps (outbound legs)
  DijkstraSearch back_search_;  ///< resumable backward sweep (return legs)

  // Warm-start memo: the backward sweep is valid while the return pair and
  // the (bucketed) cost time are unchanged. Settled costs persist inside
  // back_search_'s epoch; invalidation is just a key mismatch, which
  // happens exactly at time-bucket boundaries on a continuous run.
  struct BackwardKey {
    NodeId ra = kInvalidNode;
    NodeId rb = kInvalidNode;
    SimTime tau = -1.0;
    bool operator==(const BackwardKey&) const = default;
  };
  BackwardKey back_key_;
  uint64_t warm_start_hits_ = 0;
  uint64_t backward_sweep_starts_ = 0;

  // CH backend state: the cache's hierarchy, the reusable query workspace
  // every plane is fetched through, the unpacked-edge scratch shared by
  // every CH leg, and the batch's
  // elimination-tree label spaces (vehicle/return spaces built once per
  // batch, two per-charger spaces reused across the loop).
  const ChIndex* ch_ = nullptr;
  std::unique_ptr<ChQuery> ch_query_;
  std::vector<EdgeId> ch_edges_;
  struct ChBatchSpaces;
  std::unique_ptr<ChBatchSpaces> ch_spaces_;

  // Re-applied to the query workspace on every set_ch.
  obs::MetricsRegistry* ch_metrics_ = nullptr;

  // Profile-query state: the window's plane lanes plus the two reusable
  // multi-lane spaces and per-lane meet scratch.
  std::unique_ptr<ChProfileQuery> ch_profile_;
  std::vector<std::shared_ptr<const ChCustomization>> ch_planes_;
  struct ChProfileScratch;
  std::unique_ptr<ChProfileScratch> ch_profile_scratch_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_TRAFFIC_DEROUTING_H_
