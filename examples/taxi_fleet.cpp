// Taxi-fleet renewable hoarding — the intro's motivating scenario.
//
// A T-drive-style taxi fleet spends idle gaps between fares hoarding solar
// energy. Each taxi has a battery (EvModel) and follows a charging policy
// during its idle windows; the FleetSimulator plays the whole fleet
// against the realized solar/availability/traffic ground truth. Compared
// policies: EcoCharge, the demand-aware EcoCharge-Balanced extension, the
// nearest charger, and random picks — reporting hoarded clean kWh,
// displaced CO2, derouting, and overloaded arrivals.

#include <iomanip>
#include <iostream>

#include "core/baselines.h"
#include "core/fleet_sim.h"
#include "core/load_balancer.h"

using namespace ecocharge;

namespace {

void Print(const char* name, const FleetOutcome& o) {
  std::cout << std::left << std::setw(20) << name << std::right
            << std::setw(8) << o.total_clean_kwh << " kWh clean  "
            << std::setw(7) << o.Co2AvoidedKg() << " kg CO2 avoided  "
            << std::setw(7) << o.total_derouting_km << " km derouted  "
            << o.total_failed_stops << "/" << o.total_stops
            << " stops found full\n";
}

}  // namespace

int main() {
  EnvironmentOptions env_opts;
  env_opts.kind = DatasetKind::kTDrive;
  env_opts.dataset_scale = 0.01;
  env_opts.num_chargers = 500;
  env_opts.seed = 2024;
  auto env_result = MakeEnvironment(env_opts);
  if (!env_result.ok()) {
    std::cerr << env_result.status() << "\n";
    return 1;
  }
  auto env = std::move(env_result).MoveValueUnsafe();

  FleetSimOptions sim_opts;
  sim_opts.idle_window_s = 45.0 * kSecondsPerMinute;
  sim_opts.stop_probability = 0.5;
  FleetSimulator sim(env.get(), sim_opts);
  std::vector<FleetVehicle> fleet = sim.MakeFleet(60);

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "Fleet: " << fleet.size() << " taxis over the "
            << env->dataset.name << " network, " << env->chargers.size()
            << " chargers, 45-min idle windows\n\n";

  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco_opts;
  eco_opts.radius_m = 15000.0;

  EcoChargeRanker eco(env->estimator.get(), env->charger_index.get(), weights,
                      eco_opts);
  Print("EcoCharge", sim.Run(fleet, eco));

  BalancedEcoChargeRanker balanced(env->estimator.get(),
                                   env->charger_index.get(), weights,
                                   eco_opts);
  Print("EcoCharge-Balanced", sim.Run(fleet, balanced));

  QuadtreeRanker nearest(env->estimator.get(), env->charger_index.get(),
                         weights, /*candidate_budget=*/1);
  Print("Nearest charger", sim.Run(fleet, nearest));

  RandomRanker random(env->estimator.get(), env->charger_index.get(),
                      eco_opts.radius_m, 99);
  Print("Random charger", sim.Run(fleet, random));

  std::cout << "\nEcoCharge dynamic cache: " << eco.cache().hits()
            << " adaptations / "
            << eco.cache().hits() + eco.cache().misses() << " queries\n";
  EisCallStats eis = env->estimator->information_server().Snapshot();
  std::cout << "EIS upstream calls: weather=" << eis.weather_api_calls
            << " availability=" << eis.availability_api_calls
            << " traffic=" << eis.traffic_api_calls
            << " (weather cache hit rate " << std::setprecision(0)
            << 100.0 * eis.weather_cache.HitRate() << "%)\n";
  return 0;
}
