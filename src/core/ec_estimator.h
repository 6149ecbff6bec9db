#ifndef ECOCHARGE_CORE_EC_ESTIMATOR_H_
#define ECOCHARGE_CORE_EC_ESTIMATOR_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "availability/availability_service.h"
#include "core/query_context.h"
#include "core/score.h"
#include "core/vehicle_state.h"
#include "eis/information_server.h"
#include "energy/production.h"
#include "traffic/derouting.h"

namespace ecocharge {

/// \brief Knobs of the EC normalization.
struct EcEstimatorOptions {
  /// Normalization constant for D: the "environment's maximum derouting
  /// distance" of Eq. 3's discussion. Callers typically set it to 2R.
  double max_derouting_m = 100000.0;

  /// When non-null, exact derouting runs on the contraction-hierarchy
  /// backend (DeroutingBackend::kCh) instead of the Dijkstra sweeps. The
  /// hierarchy must be built over the estimator's network and outlive it
  /// (not owned).
  const ChIndex* ch = nullptr;

  /// Process-shared customization cache over `ch`: required whenever `ch`
  /// is set (not owned, must outlive the estimator). Every CH plane the
  /// estimator and the processors ranking through it read comes from here,
  /// so workers built from the same options price a congestion bucket once.
  ChCustomizationCache* ch_cache = nullptr;

  /// Sweep workers `ch_cache` was built with (0 or 1 = one worker), kept so
  /// a caller replacing the cache can build its successor alike.
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
  /// and benefit from, one set of sharded response caches.
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
  /// the arterial band is fetched once, every Euclidean derouting
  /// estimate and ETA is computed, L and A come from one
  /// InformationServer::GetForecastBatch call, L is normalized with a
  /// fleet-max memo per ETA bucket, and each counter is bumped once.
  /// Ids outside the fleet are skipped. Writes `ctx->scored` (ids and
  /// ECs; scores zeroed) and the EC lanes plus `ids` of `ctx->lanes`,
  /// in candidate order — bit-identical to per-candidate
  /// EstimateIntervals calls, which stay as the scalar oracle.
  void EstimateIntervalsBatch(const VehicleState& state,
                              std::span<const ChargerId> candidate_ids,
                              double derouting_norm_m, QueryContext* ctx);

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

  /// Recomputes only the derouting interval and ETA of `ecs` for a new
  /// vehicle state, keeping the (possibly stale) L and A estimates — the
  /// Dynamic Caching adaptation step.
  void ReviseDerouting(const VehicleState& state, const EvCharger& charger,
                       EcIntervals* ecs, double derouting_norm_m = 0.0);

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

  /// Points the derouting service at `options_.ch_cache` when `options_.ch`
  /// is set; aborts unless the cache indexes exactly that hierarchy.
  void SetChBackend();

  /// Finds the fleet site maximizing min(rate, pv) for the L normalization.
  void PickBestSite();

  /// Fleet-max deliverable energy for a window anchored at `t`'s
  /// 15-minute bucket (cached; this is an environment property).
  double MaxFleetEnergyKwh(SimTime t, double window_s);

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
  std::unordered_map<uint64_t, double> max_energy_cache_;

  // EstimateIntervalsBatch staging (capacity only; reused across calls).
  std::vector<const EvCharger*> batch_chargers_;
  std::vector<SimTime> batch_targets_;
  std::vector<DeroutingEstimate> batch_derouting_;
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
