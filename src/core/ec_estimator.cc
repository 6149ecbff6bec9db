#include "core/ec_estimator.h"

#include <algorithm>
#include <cmath>

namespace ecocharge {

EcEstimator::EcEstimator(std::shared_ptr<const RoadNetwork> network,
                         const std::vector<EvCharger>* fleet,
                         SolarEnergyService* energy,
                         const AvailabilityService* availability,
                         const CongestionModel* congestion,
                         const EcEstimatorOptions& options)
    : network_(std::move(network)),
      fleet_(fleet),
      energy_(energy),
      availability_(availability),
      options_(options),
      derouting_(network_, congestion, /*detour_factor=*/1.3),
      owned_eis_(std::make_unique<InformationServer>(energy, availability,
                                                     congestion)),
      eis_(owned_eis_.get()) {
  PickBestSite();
}

EcEstimator::EcEstimator(std::shared_ptr<const RoadNetwork> network,
                         const std::vector<EvCharger>* fleet,
                         SolarEnergyService* energy,
                         const AvailabilityService* availability,
                         const CongestionModel* congestion,
                         const EcEstimatorOptions& options,
                         InformationServer* shared_eis)
    : network_(std::move(network)),
      fleet_(fleet),
      energy_(energy),
      availability_(availability),
      options_(options),
      derouting_(network_, congestion, /*detour_factor=*/1.3),
      eis_(shared_eis) {
  PickBestSite();
}

void EcEstimator::PickBestSite() {
  double best = -1.0;
  for (size_t i = 0; i < fleet_->size(); ++i) {
    const EvCharger& c = (*fleet_)[i];
    double deliverable = std::min(c.RateKw(), c.pv_capacity_kw);
    if (deliverable > best) {
      best = deliverable;
      best_site_index_ = i;
    }
  }
}

namespace {

// The fleet-max energy is quantized to the EIS forecast bucket so the
// value is pure in its key.
constexpr double kEnergyBucketS = 15.0 * kSecondsPerMinute;

uint64_t EnergyBucket(SimTime t) {
  return static_cast<uint64_t>(std::max(0.0, t) / kEnergyBucketS);
}

}  // namespace

double EcEstimator::MaxFleetEnergyKwh(SimTime t, double window_s) {
  uint64_t bucket = EnergyBucket(t);
  uint64_t key = bucket * 1000003ULL +
                 static_cast<uint64_t>(window_s / kSecondsPerMinute);
  auto it = max_energy_cache_.find(key);
  if (it != max_energy_cache_.end()) return it->second;
  if (fleet_->empty()) return 0.0;
  double value = energy_->ActualEnergyKwh(
      (*fleet_)[best_site_index_], static_cast<double>(bucket) * kEnergyBucketS,
      window_s);
  max_energy_cache_[key] = value;
  return value;
}

double EcEstimator::EnergyShare(double kwh, double denom) {
  if (denom <= 1e-9) return 0.0;  // night: nothing produces
  return std::clamp(kwh / denom, 0.0, 1.0);
}

double EcEstimator::NormalizeEnergy(double kwh, double window_s, SimTime t) {
  // Eq. 1: the environment's maximum charging level at this time window.
  return EnergyShare(kwh, MaxFleetEnergyKwh(t, window_s));
}

double EcEstimator::NormalizeDerouting(double extra_m, double norm_m) const {
  if (!std::isfinite(extra_m)) return 1.0;
  double denom = norm_m > 0.0 ? norm_m : options_.max_derouting_m;
  return std::clamp(extra_m / denom, 0.0, 1.0);
}

DeroutingQuery EcEstimator::MakeQuery(const VehicleState& state) const {
  DeroutingQuery q;
  q.vehicle_position = state.position;
  q.vehicle_node = state.node;
  q.return_point_a = state.return_point_a;
  q.return_point_b = state.return_point_b;
  q.return_node_a = state.return_node_a;
  q.return_node_b = state.return_node_b;
  q.now = state.time;
  return q;
}

EcIntervals EcEstimator::EstimateIntervals(const VehicleState& state,
                                           const EvCharger& charger,
                                           double derouting_norm_m) {
  DeroutingQuery q = MakeQuery(state);
  EisFetch traffic_fetch = EisFetch::kFresh;
  CongestionModel::Band band = eis_->GetTraffic(
      RoadClass::kArterial, state.time, state.time, &traffic_fetch);
  DeroutingEstimate der = derouting_.Estimate(q, charger, band);
  SimTime eta_time = state.time + der.eta_s;

  EisFetch energy_fetch = EisFetch::kFresh;
  EnergyForecast energy =
      eis_->GetEnergyForecast(charger, state.time, eta_time,
                              state.charge_window_s, &energy_fetch);
  EisFetch avail_fetch = EisFetch::kFresh;
  AvailabilityForecast avail =
      eis_->GetAvailability(charger, state.time, eta_time, &avail_fetch);

  if (level_estimates_) level_estimates_->Add();
  if (availability_estimates_) availability_estimates_->Add();
  if (derouting_estimates_) derouting_estimates_->Add();

  EcIntervals ecs;
  ecs.level = Interval::FromUnordered(
      NormalizeEnergy(energy.min_kwh, state.charge_window_s, eta_time),
      NormalizeEnergy(energy.max_kwh, state.charge_window_s, eta_time));
  ecs.availability = Interval::FromUnordered(avail.min, avail.max);
  ecs.derouting = Interval::FromUnordered(
      NormalizeDerouting(der.extra_distance_min_m, derouting_norm_m),
      NormalizeDerouting(der.extra_distance_max_m, derouting_norm_m));
  ecs.eta_s = der.eta_s;
  ecs.degraded = traffic_fetch != EisFetch::kFresh ||
                 energy_fetch != EisFetch::kFresh ||
                 avail_fetch != EisFetch::kFresh;
  return ecs;
}

void EcEstimator::EstimateIntervalsBatch(
    const VehicleState& state, std::span<const ChargerId> candidate_ids,
    double derouting_norm_m, QueryContext* ctx) {
  const std::vector<EvCharger>& fleet = *fleet_;
  const DeroutingQuery q = MakeQuery(state);
  EisFetch traffic_fetch = EisFetch::kFresh;
  const CongestionModel::Band band = eis_->GetTraffic(
      RoadClass::kArterial, state.time, state.time, &traffic_fetch);
  const double on_route = DeroutingService::OnRouteDistance(q);

  simd::ScoreLanes& lanes = ctx->lanes;
  lanes.Clear();
  batch_chargers_.clear();
  batch_targets_.clear();
  batch_derouting_.clear();
  for (ChargerId id : candidate_ids) {
    if (id >= fleet.size()) continue;
    const DeroutingEstimate der =
        derouting_.Estimate(q, fleet[id], band, on_route);
    lanes.ids.push_back(id);
    batch_chargers_.push_back(&fleet[id]);
    batch_targets_.push_back(state.time + der.eta_s);
    batch_derouting_.push_back(der);
  }
  eis_->GetForecastBatch(batch_chargers_, batch_targets_, state.time,
                         state.charge_window_s, &batch_forecasts_);

  const size_t n = batch_chargers_.size();
  std::vector<ScoredCandidate>& scored = ctx->scored;
  scored.resize(n);
  for (std::vector<double>* lane :
       {&lanes.level_lo, &lanes.level_hi, &lanes.avail_lo, &lanes.avail_hi,
        &lanes.der_lo, &lanes.der_hi}) {
    lane->resize(n);
  }
  // Candidates of one request share a handful of ETA buckets: memoize the
  // fleet maximum of the last bucket (the same key MaxFleetEnergyKwh uses).
  uint64_t denom_bucket = ~uint64_t{0};
  double denom = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const SimTime eta_time = batch_targets_[i];
    const uint64_t bucket = EnergyBucket(eta_time);
    if (bucket != denom_bucket) {
      denom = MaxFleetEnergyKwh(eta_time, state.charge_window_s);
      denom_bucket = bucket;
    }
    const EnergyForecast& energy = batch_forecasts_.energy[i];
    const AvailabilityForecast& avail = batch_forecasts_.availability[i];
    const DeroutingEstimate& der = batch_derouting_[i];
    ScoredCandidate& c = scored[i];
    c.charger_id = lanes.ids[i];
    c.score = ScorePair{};
    c.ecs.level = Interval::FromUnordered(EnergyShare(energy.min_kwh, denom),
                                          EnergyShare(energy.max_kwh, denom));
    c.ecs.availability = Interval::FromUnordered(avail.min, avail.max);
    c.ecs.derouting = Interval::FromUnordered(
        NormalizeDerouting(der.extra_distance_min_m, derouting_norm_m),
        NormalizeDerouting(der.extra_distance_max_m, derouting_norm_m));
    c.ecs.eta_s = der.eta_s;
    c.ecs.degraded = traffic_fetch != EisFetch::kFresh ||
                     batch_forecasts_.fetch[i] != EisFetch::kFresh;
    lanes.level_lo[i] = c.ecs.level.lo;
    lanes.level_hi[i] = c.ecs.level.hi;
    lanes.avail_lo[i] = c.ecs.availability.lo;
    lanes.avail_hi[i] = c.ecs.availability.hi;
    lanes.der_lo[i] = c.ecs.derouting.lo;
    lanes.der_hi[i] = c.ecs.derouting.hi;
  }
  if (n > 0) {
    if (level_estimates_) level_estimates_->Add(n);
    if (availability_estimates_) availability_estimates_->Add(n);
    if (derouting_estimates_) derouting_estimates_->Add(n);
  }
}

BatchSweepStats EcEstimator::ExactDeroutingBatch(
    const VehicleState& state, std::span<const ChargerRef> chargers,
    DeroutingBatchScratch* scratch) {
  BatchSweepStats stats = derouting_.ExactBatch(
      MakeQuery(state), chargers, scratch, &scratch->estimates);
  if (exact_derouting_estimates_) {
    exact_derouting_estimates_->Add(chargers.size());
  }
  return stats;
}

void EcEstimator::ApplyExactDerouting(const DeroutingEstimate& exact,
                                      double derouting_norm_m,
                                      EcIntervals* ecs) const {
  double d = NormalizeDerouting(exact.extra_distance_min_m, derouting_norm_m);
  ecs->derouting = Interval::Exact(d);
  ecs->eta_s = exact.eta_s;
}

EcTruth EcEstimator::Truth(const VehicleState& state,
                           const EvCharger& charger) {
  DeroutingEstimate der = derouting_.Exact(MakeQuery(state), charger);
  EcTruth truth;
  truth.derouting = NormalizeDerouting(der.extra_distance_min_m);
  truth.eta_s = der.eta_s;
  SimTime arrival = state.time + (std::isfinite(der.eta_s) ? der.eta_s : 0.0);
  double kwh =
      energy_->ActualEnergyKwh(charger, arrival, state.charge_window_s);
  truth.level = NormalizeEnergy(kwh, state.charge_window_s, arrival);
  truth.availability = availability_->ActualAvailability(charger, arrival);
  return truth;
}

EcTruth EcEstimator::ReferenceComponents(const VehicleState& state,
                                         const EvCharger& charger) {
  DeroutingEstimate der = derouting_.Exact(MakeQuery(state), charger);
  EcTruth ref;
  ref.derouting = NormalizeDerouting(der.extra_distance_min_m);
  ref.eta_s = der.eta_s;
  SimTime arrival = state.time + (std::isfinite(der.eta_s) ? der.eta_s : 0.0);
  EisFetch energy_fetch = EisFetch::kFresh;
  EnergyForecast energy =
      eis_->GetEnergyForecast(charger, state.time, arrival,
                              state.charge_window_s, &energy_fetch);
  ref.level =
      (NormalizeEnergy(energy.min_kwh, state.charge_window_s, arrival) +
       NormalizeEnergy(energy.max_kwh, state.charge_window_s, arrival)) /
      2.0;
  EisFetch avail_fetch = EisFetch::kFresh;
  AvailabilityForecast avail =
      eis_->GetAvailability(charger, state.time, arrival, &avail_fetch);
  ref.availability = (avail.min + avail.max) / 2.0;
  ref.degraded =
      energy_fetch != EisFetch::kFresh || avail_fetch != EisFetch::kFresh;
  return ref;
}

void EcEstimator::AttachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    level_estimates_ = nullptr;
    availability_estimates_ = nullptr;
    derouting_estimates_ = nullptr;
    exact_derouting_estimates_ = nullptr;
    if (owned_eis_) owned_eis_->AttachMetrics(nullptr);
    return;
  }
  level_estimates_ =
      registry->GetCounter("estimator.estimates.level", "estimates");
  availability_estimates_ =
      registry->GetCounter("estimator.estimates.availability", "estimates");
  derouting_estimates_ =
      registry->GetCounter("estimator.estimates.derouting", "estimates");
  exact_derouting_estimates_ = registry->GetCounter(
      "estimator.estimates.exact_derouting", "estimates");
  if (owned_eis_) owned_eis_->AttachMetrics(registry);
}

double EcEstimator::ReferenceScore(const VehicleState& state,
                                   const EvCharger& charger,
                                   const ScoreWeights& weights) {
  EcTruth r = ReferenceComponents(state, charger);
  return ComputeExactScore(r.level, r.availability, r.derouting, weights);
}

double EcEstimator::TrueScore(const VehicleState& state,
                              const EvCharger& charger,
                              const ScoreWeights& weights) {
  EcTruth t = Truth(state, charger);
  return ComputeExactScore(t.level, t.availability, t.derouting, weights);
}

}  // namespace ecocharge
