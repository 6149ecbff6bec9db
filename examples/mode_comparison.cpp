// Mode comparison — Section IV's three deployment modes.
//
// Runs the same EcoCharge workload and projects the measured per-query
// compute time through the mode latency model: Mode 1 (vehicle's embedded
// OS), Mode 2 (centralized on the EIS), Mode 3 (driver's phone). Shows the
// end-to-end latency a driver would perceive and how the EIS caches cut
// the upstream API traffic that Modes 1/3 must pull.

#include <iomanip>
#include <iostream>

#include "common/statistics.h"
#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "eis/modes.h"
#include "core/ecocharge.h"
#include "core/environment.h"
#include "core/workload.h"

using namespace ecocharge;

int main() {
  EnvironmentOptions env_opts;
  env_opts.kind = DatasetKind::kCalifornia;
  env_opts.dataset_scale = 0.01;
  env_opts.num_chargers = 800;
  env_opts.seed = 11;
  auto env_result = MakeEnvironment(env_opts);
  if (!env_result.ok()) {
    std::cerr << env_result.status() << "\n";
    return 1;
  }
  auto env = std::move(env_result).MoveValueUnsafe();

  WorkloadOptions wo;
  wo.max_trips = 20;
  wo.max_states = 60;
  std::vector<VehicleState> states = BuildWorkload(env->dataset, wo);

  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions opts;
  EcoChargeRanker eco(env->estimator.get(), env->charger_index.get(), weights,
                      opts);

  // Measure the algorithm itself and the upstream traffic behind it.
  EisCallStats before = env->estimator->information_server().Snapshot();
  RunningStats compute_ms;
  for (const VehicleState& state : states) {
    Stopwatch timer;
    eco.Rank(state, 3);
    compute_ms.Add(timer.ElapsedMillis());
  }
  EisCallStats after = env->estimator->information_server().Snapshot();
  uint64_t upstream = (after.weather_api_calls - before.weather_api_calls) +
                      (after.availability_api_calls -
                       before.availability_api_calls) +
                      (after.traffic_api_calls - before.traffic_api_calls);

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "Workload: " << states.size() << " Offering Tables, mean "
            << compute_ms.mean() << " ms compute each; "
            << static_cast<double>(upstream) /
                   static_cast<double>(states.size())
            << " upstream API calls per query behind the EIS caches\n"
            << "(the EIS consolidates each query's EC data into one batched "
               "response, so clients pay one fetch round)\n\n";

  ModeLatencyModel model;
  std::cout << std::left << std::setw(22) << "Mode" << std::setw(14)
            << "end-to-end" << "notes\n";
  for (ExecutionMode mode : {ExecutionMode::kEmbedded, ExecutionMode::kServer,
                             ExecutionMode::kEdge}) {
    double ms = model.EndToEndMs(mode, compute_ms.mean(),
                                 /*api_batches=*/1);
    std::cout << std::setw(22) << ExecutionModeName(mode) << std::setw(14)
              << (TableWriter::Fmt(ms, 2) + " ms");
    switch (mode) {
      case ExecutionMode::kEmbedded:
        std::cout << "slow SoC, pulls cached EC data from the EIS";
        break;
      case ExecutionMode::kServer:
        std::cout << "fast CPU, one round trip carrying the table";
        break;
      case ExecutionMode::kEdge:
        std::cout << "phone CPU via Android Auto / CarPlay";
        break;
    }
    std::cout << "\n";
  }
  std::cout << "\nThe crossover: once per-query compute exceeds ~"
            << (model.server_rtt_ms - model.per_api_batch_ms) /
                   (model.embedded_cpu_factor - 1.0)
            << " ms, Mode 2 (server) beats Mode 1 even after paying the "
               "round trip.\n";
  return 0;
}
