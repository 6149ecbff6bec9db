#include "core/environment.h"

namespace ecocharge {

ClimateParams DefaultClimate(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kOldenburg:
      return ClimateParams{0.38, 0.82};  // north-German grey
    case DatasetKind::kCalifornia:
      return ClimateParams{0.78, 0.90};  // reliably sunny
    case DatasetKind::kTDrive:
      return ClimateParams{0.55, 0.85};  // Beijing continental
    case DatasetKind::kGeolife:
      return ClimateParams{0.55, 0.85};
  }
  return ClimateParams{};
}

double DefaultLatitude(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kOldenburg:
      return 53.1;
    case DatasetKind::kCalifornia:
      return 37.0;
    case DatasetKind::kTDrive:
    case DatasetKind::kGeolife:
      return 39.9;
  }
  return 45.0;
}

Result<std::unique_ptr<Environment>> MakeEnvironment(
    const EnvironmentOptions& options) {
  auto env = std::make_unique<Environment>();

  DatasetOptions ds_opts;
  ds_opts.scale = options.dataset_scale;
  ds_opts.seed = options.seed;
  if (!options.graph_snapshot.empty()) {
    ECOCHARGE_ASSIGN_OR_RETURN(
        env->dataset,
        MakeSnapshotDataset(options.graph_snapshot, options.kind, ds_opts));
  } else {
    ECOCHARGE_ASSIGN_OR_RETURN(env->dataset,
                               MakeDataset(options.kind, ds_opts));
  }

  ChargerFleetOptions fleet_opts;
  fleet_opts.num_chargers = options.num_chargers;
  fleet_opts.seed = options.seed ^ 0xC0FFEEULL;
  ECOCHARGE_ASSIGN_OR_RETURN(
      env->chargers, GenerateChargerFleet(*env->dataset.network, fleet_opts));

  SolarModel solar;
  solar.latitude_deg = DefaultLatitude(options.kind);
  env->energy = std::make_unique<SolarEnergyService>(
      solar, DefaultClimate(options.kind), options.seed ^ 0x50AAULL);
  env->availability =
      std::make_unique<AvailabilityService>(options.seed ^ 0xA11AULL);
  env->congestion =
      std::make_unique<CongestionModel>(options.seed ^ 0x7AFF1CULL);

  EcEstimatorOptions est_opts;
  est_opts.max_derouting_m = options.max_derouting_m;
  env->estimator = std::make_unique<EcEstimator>(
      env->dataset.network, &env->chargers, env->energy.get(),
      env->availability.get(), env->congestion.get(), est_opts);

  std::vector<Point> charger_points;
  charger_points.reserve(env->chargers.size());
  for (const EvCharger& c : env->chargers) {
    charger_points.push_back(c.position);
  }
  env->index_kind = options.index_kind;
  env->charger_index = MakeSpatialIndex(options.index_kind);
  env->charger_index->Build(std::move(charger_points));

  return env;
}

}  // namespace ecocharge
