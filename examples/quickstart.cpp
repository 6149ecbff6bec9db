// Quickstart: build a small city world, drive one trip, and print the
// EcoCharge Offering Tables alongside the Brute-Force optimum.
//
// Usage: quickstart [seed] [index]
//   index: quadtree|rtree|grid|linear — charger-index backend; the
//   tables are identical across backends, only the query time changes.

#include <cstdlib>
#include <iostream>

#include "core/baselines.h"
#include "core/ecocharge.h"
#include "core/environment.h"
#include "core/workload.h"

using namespace ecocharge;

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // 1. Build a world: the Oldenburg-style dataset with 200 chargers.
  EnvironmentOptions env_opts;
  env_opts.kind = DatasetKind::kOldenburg;
  env_opts.dataset_scale = 0.01;
  env_opts.num_chargers = 200;
  env_opts.seed = seed;
  if (argc > 2) {
    auto kind = ParseSpatialIndexKind(argv[2]);
    if (!kind.ok()) {
      std::cerr << kind.status() << "\n";
      return 2;
    }
    env_opts.index_kind = kind.value();
  }
  auto env_result = MakeEnvironment(env_opts);
  if (!env_result.ok()) {
    std::cerr << "environment: " << env_result.status() << "\n";
    return 1;
  }
  std::unique_ptr<Environment> env_ptr =
      std::move(env_result).MoveValueUnsafe();
  Environment& env = *env_ptr;
  std::cout << "World: " << env.dataset.name << " network with "
            << env.dataset.network->NumNodes() << " nodes, "
            << env.dataset.network->NumEdges() << " edges, "
            << env.chargers.size() << " chargers ("
            << SpatialIndexKindName(env.index_kind) << " index), "
            << env.dataset.trajectories.size() << " trajectories\n\n";

  // 2. Take the first trip and turn it into per-segment vehicle states.
  const Trajectory& trip = env.dataset.trajectories.front();
  std::vector<VehicleState> states =
      TripStates(*env.dataset.network, trip, /*segment_length_m=*/4000.0,
                 /*charge_window_s=*/kSecondsPerHour);
  std::cout << "Scheduled trip of " << trip.LengthMeters() / 1000.0
            << " km -> " << states.size() << " segments\n\n";

  // 3. Rank with EcoCharge and compare against the Brute-Force optimum.
  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco_opts;
  eco_opts.radius_m = 20000.0;
  eco_opts.q_distance_m = 5000.0;
  EcoChargeRanker eco(env.estimator.get(), env.charger_index.get(), weights,
                      eco_opts);
  BruteForceRanker brute(env.estimator.get(), weights);

  const size_t k = 3;
  for (const VehicleState& state : states) {
    OfferingTable table = eco.Rank(state, k);
    std::cout << table.ToString(env.chargers);
    OfferingTable best = brute.Rank(state, k);
    std::cout << "  (optimal top-1 would be b" << best.top().charger_id
              << ")\n\n";
  }
  std::cout << "Dynamic cache: " << eco.cache().hits() << " hits, "
            << eco.cache().misses() << " misses\n";
  return 0;
}
