#ifndef ECOCHARGE_CORE_EC_ESTIMATOR_H_
#define ECOCHARGE_CORE_EC_ESTIMATOR_H_

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "availability/availability_service.h"
#include "core/query_context.h"
#include "core/score.h"
#include "core/vehicle_state.h"
#include "eis/information_server.h"
#include "energy/production.h"
#include "traffic/derouting.h"

namespace ecocharge {

class ChCustomizationCache;

/// \brief Knobs of the EC normalization.
struct EcEstimatorOptions {
  /// Normalization constant for D: the "environment's maximum derouting
  /// distance" of Eq. 3's discussion. Callers typically set it to 2R.
  double max_derouting_m = 100000.0;

  /// Unused; perfbench still sets it.
  ChCustomizationCache* ch_cache = nullptr;
  /// Unused; perfbench still reads it.
  int ch_threads = 0;
};

/// \brief Ground-truth (realized) components of one charger, normalized.
struct EcTruth {
  double level = 0.0;
  double availability = 0.0;
  double derouting = 0.0;
  double eta_s = 0.0;
  bool degraded = false;  ///< any EIS-fed component came from a stale/widened
                          ///< fetch (Truth() never degrades: it reads the raw
                          ///< ground-truth services, not the EIS)
};

/// \brief Assembles the three Estimated Components for a charger.
///
/// Two fidelities mirror the paper's phases:
///  - EstimateIntervals(): interval ECs from the forecast services via the
///    EIS caches — cheap, used by the CkNN-EC filtering phase and by the
///    production EcoCharge ranker.
///  - Truth(): realized values with network-exact derouting — what actually
///    happens; the Brute-Force oracle ranks by these, and the evaluation
///    scores every method's picks against them.
///
/// Thread safety: one estimator is NOT safe to share between threads (it
/// owns Dijkstra scratch, a derouting memo, and the fleet-energy cache).
/// The concurrent serving runtime gives each worker its own estimator and
/// shares only the InformationServer between them via the borrowing
/// constructor — the EIS is internally synchronized, and every estimator
/// output is a pure function of (seed, query), so per-worker instances
/// produce bit-identical components.
class EcEstimator {
 public:
  EcEstimator(std::shared_ptr<const RoadNetwork> network,
              const std::vector<EvCharger>* fleet,
              SolarEnergyService* energy,
              const AvailabilityService* availability,
              const CongestionModel* congestion,
              const EcEstimatorOptions& options);

  /// Like above, but borrows `shared_eis` (not owned; must outlive this)
  /// instead of constructing a private InformationServer — the shape the
  /// OfferingServer uses so all workers account upstream calls against,
  /// and benefit from, one set of forecast-column stores.
  EcEstimator(std::shared_ptr<const RoadNetwork> network,
              const std::vector<EvCharger>* fleet,
              SolarEnergyService* energy,
              const AvailabilityService* availability,
              const CongestionModel* congestion,
              const EcEstimatorOptions& options,
              InformationServer* shared_eis);

  /// Interval ECs (normalized) for `charger` seen from `state`.
  /// `derouting_norm_m` overrides the D normalization constant (the
  /// "environment's maximum derouting distance", which scales with the
  /// user's configured radius R); 0 keeps the estimator-wide default.
  EcIntervals EstimateIntervals(const VehicleState& state,
                                const EvCharger& charger,
                                double derouting_norm_m = 0.0);

  /// EstimateIntervals for a whole candidate set, as one columnar batch:
  /// PrepareIntervalsBatch, then EstimatePreparedBatch over every
  /// candidate. Ids outside the fleet are skipped. Writes `ctx->scored`
  /// (ids and ECs; scores zeroed) and the EC lanes plus `ids` of
  /// `ctx->lanes`, in candidate order — bit-identical to per-candidate
  /// EstimateIntervals calls, which stay as the estimation oracle.
  void EstimateIntervalsBatch(const VehicleState& state,
                              std::span<const ChargerId> candidate_ids,
                              double derouting_norm_m, QueryContext* ctx);

  /// The fetch-free half of a columnar batch: the arterial band is
  /// fetched once and every candidate's Euclidean derouting estimate and
  /// ETA computed. Clears `ctx->scored` and `ctx->lanes`, then fills the
  /// candidate lanes `cand_ids`, `cand_der_lo` and `cand_der_hi` in
  /// candidate order (ids outside the fleet skipped). The estimator keeps
  /// each candidate's charger and ETA until the next prepare.
  void PrepareIntervalsBatch(const VehicleState& state,
                             std::span<const ChargerId> candidate_ids,
                             double derouting_norm_m, QueryContext* ctx);

  /// Fills `ctx->lanes.cand_level_ub` for the prepared candidates: the
  /// EIS's L ceiling (InformationServer::GetEnergyCeilingBatch) as a
  /// share of the fleet maximum, at least the L interval's upper end the
  /// candidate's fetch would give. Fetches nothing.
  void BoundLevelsBatch(const VehicleState& state, QueryContext* ctx);

  /// Fetches L and A for the prepared candidate slots `slots` (ascending)
  /// with one InformationServer::GetForecastBatch call, normalizes L with
  /// the fleet-max memo, and appends their ECs to `ctx->scored` and the
  /// EC lanes plus `ids` of `ctx->lanes`, in `slots` order.
  void EstimatePreparedBatch(const VehicleState& state,
                             std::span<const uint32_t> slots,
                             QueryContext* ctx);

  /// Batched form of the exact-derouting upgrade: one forward sweep plus
  /// one (possibly warm) backward sweep covers every charger in
  /// `chargers`, writing one estimate per charger into
  /// `scratch->estimates` (input order, bit-identical to per-charger
  /// Exact calls). The caller folds each estimate into its interval ECs
  /// with ApplyExactDerouting().
  BatchSweepStats ExactDeroutingBatch(const VehicleState& state,
                                      std::span<const ChargerRef> chargers,
                                      DeroutingBatchScratch* scratch);

  /// Folds a network-exact derouting estimate into `*ecs`: D becomes the
  /// exact normalized extra distance and the ETA the network ETA.
  void ApplyExactDerouting(const DeroutingEstimate& exact,
                           double derouting_norm_m, EcIntervals* ecs) const;

  /// Realized normalized components.
  EcTruth Truth(const VehicleState& state, const EvCharger& charger);

  /// Realized SC score under `weights`.
  double TrueScore(const VehicleState& state, const EvCharger& charger,
                   const ScoreWeights& weights);

  /// Best-knowable components: forecast midpoints for L and A plus the
  /// network-exact derouting cost. This is the objective the Brute-Force
  /// oracle maximizes and every method is scored against — the estimation
  /// noise of the upstream forecasts is identical for all methods, so the
  /// metric isolates the *search* quality (the paper's SC%).
  EcTruth ReferenceComponents(const VehicleState& state,
                              const EvCharger& charger);

  /// SC under the reference components.
  double ReferenceScore(const VehicleState& state, const EvCharger& charger,
                        const ScoreWeights& weights);

  /// The derouting-service query for `state` (node snaps + return points).
  /// Exposed so batch callers and benches can drive the DeroutingService
  /// with exactly the query the estimator would build.
  DeroutingQuery MakeDeroutingQuery(const VehicleState& state) const {
    return MakeQuery(state);
  }

  /// Normalizes raw kWh into the L score: relative to the best deliverable
  /// energy over the fleet for a window starting near `t` (the paper's
  /// Eq. 1, L(B) = max{s_t^b}). Returns 0 when nothing produces (night).
  double NormalizeEnergy(double kwh, double window_s, SimTime t);

  /// Fleet-max deliverable energy for a window anchored at `t`'s
  /// 15-minute bucket: the best site's actual energy, eq. 1's L
  /// denominator. An environment property, kept in a fixed direct-mapped
  /// memo keyed by (bucket, window): lookups never allocate, and a long
  /// run does not grow it.
  double MaxFleetEnergyKwh(SimTime t, double window_s);

  /// Normalizes raw extra meters into the D score; `norm_m` <= 0 uses the
  /// estimator-wide default.
  double NormalizeDerouting(double extra_m, double norm_m = 0.0) const;

  const std::vector<EvCharger>& fleet() const { return *fleet_; }
  DeroutingService& derouting_service() { return derouting_; }
  InformationServer& information_server() { return *eis_; }
  const EcEstimatorOptions& options() const { return options_; }

  /// Wires per-EC estimate counters (`estimator.estimates.{level,
  /// availability,derouting}` plus `estimator.estimates.exact_derouting`)
  /// onto `registry`; null detaches. When this estimator owns its private
  /// InformationServer, the EIS is wired too (a borrowed shared EIS is
  /// attached by whoever owns it, exactly once). Counter handles resolve
  /// here, not on the estimate path, so steady-state cost is one branch
  /// plus a relaxed fetch_add per component.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  DeroutingQuery MakeQuery(const VehicleState& state) const;

  /// Finds the fleet site maximizing min(rate, pv) for the L normalization.
  void PickBestSite();

  /// Eq. 1's share of the fleet maximum `denom` (0 when nothing produces).
  static double EnergyShare(double kwh, double denom);

  std::shared_ptr<const RoadNetwork> network_;
  const std::vector<EvCharger>* fleet_;
  SolarEnergyService* energy_;
  const AvailabilityService* availability_;
  EcEstimatorOptions options_;
  DeroutingService derouting_;
  std::unique_ptr<InformationServer> owned_eis_;  ///< null when borrowing
  InformationServer* eis_;
  size_t best_site_index_ = 0;  // fleet index maximizing min(rate, pv)

  /// MaxFleetEnergyKwh's memo; a collision recomputes the evicted entry.
  struct FleetEnergyEntry {
    uint64_t bucket = ~uint64_t{0};
    uint64_t window_bits = 0;
    double kwh = 0.0;
  };
  std::array<FleetEnergyEntry, 64> fleet_energy_memo_{};

  // Columnar batch staging (capacity only; reused across calls): per
  // prepared candidate its charger, ETA offset, arrival time and arrival
  // bucket (an index into the request's distinct energy buckets, each with
  // its start time and L denominator), the traffic rung of the prepare,
  // and one fetch round's gathered inputs.
  std::vector<const EvCharger*> batch_chargers_;
  std::vector<double> batch_eta_;
  std::vector<SimTime> batch_targets_;
  std::vector<uint32_t> batch_bucket_;
  std::vector<SimTime> bucket_starts_;
  std::vector<double> bucket_denom_;
  EisFetch batch_traffic_fetch_ = EisFetch::kFresh;
  std::vector<const EvCharger*> fetch_chargers_;
  std::vector<SimTime> fetch_targets_;
  ForecastBatch batch_forecasts_;

  // Observability (null until AttachMetrics): one count per estimated
  // component, so statsz shows how much L/A/D estimation work each run did.
  obs::Counter* level_estimates_ = nullptr;
  obs::Counter* availability_estimates_ = nullptr;
  obs::Counter* derouting_estimates_ = nullptr;
  obs::Counter* exact_derouting_estimates_ = nullptr;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_EC_ESTIMATOR_H_
