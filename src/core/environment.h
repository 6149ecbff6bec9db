#ifndef ECOCHARGE_CORE_ENVIRONMENT_H_
#define ECOCHARGE_CORE_ENVIRONMENT_H_

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
  /// Contraction hierarchy backing the CH derouting backend; null unless
  /// derouting_backend == kCh. Loaded zero-copy from the snapshot's CH
  /// section when one exists, contracted from scratch otherwise.
  std::shared_ptr<const ChIndex> ch;
  /// Process-shared customization cache over `ch`, the one source of
  /// customized planes (null unless the CH backend is on). Estimators built
  /// from estimator->options() inherit it, so every server worker prices a
  /// congestion bucket once per process.
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

  /// Exact-derouting cost-time bucket (see
  /// EcEstimatorOptions::exact_derouting_bucket_s); 0 = off.
  double exact_derouting_bucket_s = 0.0;

  /// Spatial index backend for the charger index. Every backend yields
  /// bit-identical Offering Tables; the choice is a performance knob.
  SpatialIndexKind index_kind = SpatialIndexKind::kQuadTree;

  /// Exact-derouting engine (CLI --derouting=ch|exact). kCh loads the
  /// snapshot's CH section when `graph_snapshot` carries one (zero-copy),
  /// contracts the network at build time otherwise; both produce estimates
  /// bit-identical to kExact.
  DeroutingBackend derouting_backend = DeroutingBackend::kExact;

  /// Sweep workers of every Environment::ch_cache build (CLI
  /// --ch-threads): -1 (default) =
  /// hardware concurrency, 0 or 1 = one worker in rank order, N >= 2 =
  /// level-parallel with N workers. Every setting runs the same pull
  /// kernel and prices bit-identically.
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
