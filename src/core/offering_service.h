#ifndef ECOCHARGE_CORE_OFFERING_SERVICE_H_
#define ECOCHARGE_CORE_OFFERING_SERVICE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/ecocharge.h"

namespace ecocharge {

/// \brief Request/serve statistics of one service instance.
struct OfferingServiceStats {
  uint64_t requests = 0;
  uint64_t tables_served = 0;
  uint64_t cache_adaptations = 0;
};

/// \brief The Mode-2 ranking core: ranks with a per-client EcoCharge
/// instance (OfferingServer decodes wire requests and encodes replies
/// around it).
///
/// Each client (vehicle) gets its own EcoChargeRanker so Dynamic Caching
/// tracks that vehicle's movement — the paper's EIS serves many vehicles
/// concurrently, each with its own solution cache. Client state is evicted
/// after `client_ttl_s` of inactivity.
class OfferingService {
 public:
  /// \param estimator shared EC estimator (not owned)
  /// \param charger_index spatial index over the fleet (not owned)
  OfferingService(EcEstimator* estimator, const SpatialIndex* charger_index,
                  const ScoreWeights& weights,
                  const EcoChargeOptions& options,
                  double client_ttl_s = kSecondsPerHour);

  /// Ranks for `client_id` into `*out` using the service-owned scratch
  /// context (the zero-allocation serving path).
  void RankInto(uint64_t client_id, const VehicleState& state, size_t k,
                OfferingTable* out);

  /// Convenience for in-process callers: rank without serialization.
  OfferingTable Rank(uint64_t client_id, const VehicleState& state, size_t k);

  /// Ranks `state` with Dynamic Caching disabled: a fresh filter + score +
  /// refine pass whose result depends only on the state and the world —
  /// not on any per-client history. The corridor cache ranks canonical
  /// anchor states through this path, so the stored table is identical no
  /// matter which vehicle or worker computed it.
  void RankFresh(const VehicleState& state, size_t k, OfferingTable* out);

  /// Drops the cached state of every client idle since before `now`.
  void EvictIdleClients(SimTime now);

  /// Pre-grows the batched-refinement scratch to `refine_candidates`
  /// targets, so the first ranked query performs no refinement-phase
  /// allocations. The concurrent runtime calls this once per worker at
  /// startup with its configured refine limit.
  void ReserveBatchScratch(size_t refine_candidates) {
    ctx_.derouting.Reserve(refine_candidates);
  }

  /// Pre-grows the SoA candidate lanes to `candidates` slots, so the first
  /// ranked query's vectorized filter/score phase performs no allocations.
  /// The concurrent runtime calls this once per worker with its expected
  /// per-query candidate volume.
  void ReserveScoreLanes(size_t candidates) { ctx_.lanes.Reserve(candidates); }

  size_t active_clients() const { return clients_.size(); }
  const OfferingServiceStats& stats() const { return stats_; }

  /// Resolves the `pipeline.*` handles on `registry` and installs them on
  /// every client ranker — including ones created lazily later, so the
  /// attach order relative to client arrival doesn't matter. Null detaches.
  /// All clients (and, in the concurrent runtime, all sibling services)
  /// record into the same handles: the metrics describe the service, not
  /// one vehicle.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct ClientState {
    std::unique_ptr<EcoChargeRanker> ranker;
    SimTime last_seen = 0.0;
  };

  ClientState& ClientFor(uint64_t client_id);
  EcoChargeRanker& FreshRanker();

  EcEstimator* estimator_;
  const SpatialIndex* charger_index_;
  ScoreWeights weights_;
  EcoChargeOptions options_;
  double client_ttl_s_;
  std::unordered_map<uint64_t, ClientState> clients_;
  std::unique_ptr<EcoChargeRanker> fresh_ranker_;  // Dynamic Caching off
  OfferingServiceStats stats_;
  PipelineMetrics pipeline_metrics_;  // applied to every client ranker

  // Serving scratch, shared across clients (the service is single-threaded
  // per instance): the pipeline buffers.
  QueryContext ctx_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_OFFERING_SERVICE_H_
