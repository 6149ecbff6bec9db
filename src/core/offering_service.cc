#include "core/offering_service.h"

namespace ecocharge {

OfferingService::OfferingService(EcEstimator* estimator,
                                 const SpatialIndex* charger_index,
                                 const ScoreWeights& weights,
                                 const EcoChargeOptions& options,
                                 double client_ttl_s)
    : estimator_(estimator),
      charger_index_(charger_index),
      weights_(weights),
      options_(options),
      client_ttl_s_(client_ttl_s) {}

OfferingService::ClientState& OfferingService::ClientFor(uint64_t client_id) {
  ClientState& client = clients_[client_id];
  if (!client.ranker) {
    client.ranker = std::make_unique<EcoChargeRanker>(
        estimator_, charger_index_, weights_, options_);
    client.ranker->set_metrics(pipeline_metrics_);
  }
  return client;
}

EcoChargeRanker& OfferingService::FreshRanker() {
  if (!fresh_ranker_) {
    EcoChargeOptions fresh = options_;
    fresh.use_dynamic_cache = false;
    fresh_ranker_ = std::make_unique<EcoChargeRanker>(
        estimator_, charger_index_, weights_, fresh);
    fresh_ranker_->set_metrics(pipeline_metrics_);
  }
  return *fresh_ranker_;
}

void OfferingService::AttachMetrics(obs::MetricsRegistry* registry) {
  pipeline_metrics_ =
      registry ? PipelineMetrics::FromRegistry(registry) : PipelineMetrics{};
  for (auto& [id, client] : clients_) {
    if (client.ranker) client.ranker->set_metrics(pipeline_metrics_);
  }
  if (fresh_ranker_) fresh_ranker_->set_metrics(pipeline_metrics_);
}

void OfferingService::RankInto(uint64_t client_id, const VehicleState& state,
                               size_t k, OfferingTable* out) {
  ++stats_.requests;
  ClientState& client = ClientFor(client_id);
  client.last_seen = state.time;
  client.ranker->RankInto(state, k, ctx_, out);
  ++stats_.tables_served;
  if (out->adapted_from_cache) ++stats_.cache_adaptations;
}

void OfferingService::RankFresh(const VehicleState& state, size_t k,
                                OfferingTable* out) {
  ++stats_.requests;
  FreshRanker().RankInto(state, k, ctx_, out);
  ++stats_.tables_served;
}

OfferingTable OfferingService::Rank(uint64_t client_id,
                                    const VehicleState& state, size_t k) {
  OfferingTable table;
  RankInto(client_id, state, k, &table);
  return table;
}

void OfferingService::EvictIdleClients(SimTime now) {
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (now - it->second.last_seen > client_ttl_s_) {
      it = clients_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ecocharge
