#ifndef ECOCHARGE_CORE_ENVIRONMENT_H_
#define ECOCHARGE_CORE_ENVIRONMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "availability/availability_service.h"
#include "common/result.h"
#include "core/ec_estimator.h"
#include "energy/production.h"
#include "spatial/index_factory.h"
#include "spatial/spatial_index.h"
#include "traffic/congestion.h"
#include "traj/dataset.h"

namespace ecocharge {

class ChIndex;
class ChCustomizationCache;

/// Unused; perfbench still sets EnvironmentOptions::derouting_backend to
/// kCh. Exact derouting runs the Dijkstra sweeps whatever the value.
enum class DeroutingBackend : uint8_t {
  kExact = 0,
  kCh = 1,
};

/// \brief One fully-wired simulation world: dataset + chargers + the
/// ground-truth/forecast services + the EC estimator + the charger index.
/// Everything benches, tests, and examples need to run rankers.
///
/// Heap-allocated (MakeEnvironment returns a unique_ptr) because the
/// estimator holds pointers into the sibling members; moving the struct
/// itself would dangle them.
struct Environment {
  Dataset dataset;
  std::vector<EvCharger> chargers;
  std::unique_ptr<SolarEnergyService> energy;
  std::unique_ptr<AvailabilityService> availability;
  std::unique_ptr<CongestionModel> congestion;
  std::unique_ptr<EcEstimator> estimator;
  SpatialIndexKind index_kind = SpatialIndexKind::kQuadTree;
  std::unique_ptr<SpatialIndex> charger_index;  ///< ids = indices in chargers
  /// Unused (always null); perfbench still reads it.
  std::shared_ptr<const ChIndex> ch;
  /// Unused (always null); perfbench still reads it.
  std::shared_ptr<ChCustomizationCache> ch_cache;
};

/// \brief World-building knobs.
struct EnvironmentOptions {
  DatasetKind kind = DatasetKind::kOldenburg;
  double dataset_scale = 0.01;     ///< see DatasetOptions::scale
  size_t num_chargers = 1000;      ///< paper: >1,000 sites
  double max_derouting_m = 100000.0;  ///< D normalization (2R by default)
  uint64_t seed = 42;

  /// When non-empty, mmap-load the road network from this binary snapshot
  /// (graph/io.h) instead of synthesizing it; `kind` still shapes the
  /// trajectory workload. A snapshot of the kind's own network yields a
  /// bit-identical environment.
  std::string graph_snapshot;

  /// Spatial index backend for the charger index. Every backend yields
  /// bit-identical Offering Tables; the choice is a performance knob.
  SpatialIndexKind index_kind = SpatialIndexKind::kQuadTree;

  /// Unused; perfbench still sets it.
  DeroutingBackend derouting_backend = DeroutingBackend::kExact;
  /// Unused; perfbench still sets it.
  int ch_threads = -1;
};

/// Climate of each dataset's region (drives the weather Markov chain).
ClimateParams DefaultClimate(DatasetKind kind);

/// Latitude of each dataset's region (drives the solar model).
double DefaultLatitude(DatasetKind kind);

/// Builds a deterministic environment for (options).
Result<std::unique_ptr<Environment>> MakeEnvironment(
    const EnvironmentOptions& options);

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_ENVIRONMENT_H_
