#ifndef ECOCHARGE_CORE_CONTINUOUS_H_
#define ECOCHARGE_CORE_CONTINUOUS_H_

#include <functional>
#include <vector>

#include "core/ranker.h"
#include "core/workload.h"

namespace ecocharge {

/// \brief Per-trip outcome of a continuous run.
struct TripRun {
  uint64_t trip_id = 0;
  std::vector<OfferingTable> tables;   ///< one per recomputation point
  size_t cache_adaptations = 0;        ///< tables adapted, not regenerated
  double total_compute_ms = 0.0;

  /// Arc positions (meters along the trip) where the top-ranked charger
  /// changed — the solution-level split points of the CkNN-EC result.
  std::vector<double> top_change_positions_m;
};

/// \brief Options of the continuous monitoring loop.
struct ContinuousRunOptions {
  size_t k = 3;
  double segment_length_m = 4000.0;          ///< Step 1 granularity
  double recompute_window_s = 4.0 * 60.0;    ///< the client's ~3-5 min cycle
  double charge_window_s = kSecondsPerHour;
};

/// \brief Drives one vehicle along its scheduled trip, re-ranking at every
/// recomputation point (the EcoCharge Client's continuous loop,
/// Section IV-A).
///
/// Recomputation points are the denser of: segment boundaries (neighbors
/// can only change at split points) and the wall-clock recompute window.
/// The ranker's Dynamic Caching decides per point whether to adapt or
/// regenerate.
class ContinuousTripRunner {
 public:
  ContinuousTripRunner(const RoadNetwork* network, Ranker* ranker,
                       const ContinuousRunOptions& options);

  /// Runs the full trip; the optional callback observes every table as it
  /// is produced (the "display to the driver" step).
  TripRun Run(const Trajectory& trip,
              const std::function<void(const VehicleState&,
                                       const OfferingTable&)>& on_table = {});

 private:
  const RoadNetwork* network_;
  Ranker* ranker_;
  ContinuousRunOptions options_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_CONTINUOUS_H_
