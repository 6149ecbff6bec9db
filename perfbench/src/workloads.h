// Seeded request streams and the worlds they run against.
//
// Three workloads, each chosen to load a different set of layers (the
// same rationale is recorded in BENCHMARK.json):
//
//  city_trips      Oldenburg world, 1000 chargers, exact (Dijkstra)
//                  derouting, per-client Dynamic Caching. Thousands of
//                  vehicles' continuous trips interleaved by sim time: the
//                  paper's own setting. Loads core scoring, EC estimation
//                  and the eis TTL caches; traffic (Dijkstra batches) is
//                  about a fifth of a fresh request; CH is off, so this is
//                  the control for any ch change.
//  regional_ch     generated 100 x 100 grid road network, built into a
//                  snapshot at setup with its contraction hierarchy, CH
//                  derouting, trips spread over the whole day. Loads
//                  traffic and ch (customization dominates a fresh
//                  request); core and eis barely show.
//  corridor_fleet  the Oldenburg world served through the src/server
//                  CorridorCache and WorldEpochs: several vehicles drive
//                  each trip with staggered departures, and every
//                  kRefreshEvery requests the generator publishes a
//                  rotating weather / availability / traffic refresh.
//                  Shares work across vehicles, runs refresh writes beside
//                  reads (invalidating corridor and EIS keys) and bypasses
//                  per-client Dynamic Caching.
//
// Deliberately unmeasured: src/fleet (corridor_fleet uses the src/server
// corridor path directly, so the fleet router adds nothing the stream
// needs), src/resilience (off by default; the fault-free decorated path is
// bit-identical to the plain EIS) and multi-worker queueing (every request
// is served inline by one closed-loop client, so the numbers are service
// times without scheduler noise; queue wait needs tracing inside the
// program to be split from service time).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/ecocharge.h"
#include "core/environment.h"
#include "core/vehicle_state.h"
#include "server/corridor_cache.h"

namespace perfbench {

/// A world refresh the generator publishes before a request is served.
enum class Refresh : uint8_t { kNone, kWeather, kAvailability, kTraffic };

/// One closed-loop request of the stream.
struct Request {
  uint64_t client_id = 0;
  ecocharge::VehicleState state;
  Refresh refresh_before = Refresh::kNone;
};

/// Wall time of the set-up steps, in seconds.
struct SetupTimes {
  double graph_build_s = 0.0;    ///< road network (and world) build
  double ch_contract_s = 0.0;    ///< CH contraction (regional_ch only)
  double spatial_build_s = 0.0;  ///< charger index build
  double stream_s = 0.0;         ///< trip generation and request schedule
  double total_s = 0.0;
};

/// A built world plus the request stream replayed against it.
struct Workload {
  std::string name;
  std::unique_ptr<ecocharge::Environment> env;
  ecocharge::EcoChargeOptions eco;
  size_t k = 3;
  /// Serve through the corridor cache and world epochs.
  bool corridor = false;
  ecocharge::CorridorCacheOptions corridor_options;
  std::vector<Request> stream;
  /// Served tables scored against the Brute-Force oracle for sc_pct; the
  /// oracle prices every charger exactly, so this is sized to its cost.
  size_t sc_samples = 16;
  SetupTimes setup;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the world and the seeded stream of workload `name`. Files the
/// set-up writes (the regional snapshot) go under `work_dir`.
ecocharge::Result<Workload> BuildWorkload(const std::string& name,
                                          uint64_t seed,
                                          const std::string& work_dir);

/// Order-sensitive digest of every field of every request.
uint64_t StreamDigest(const std::vector<Request>& stream);

/// Gives the environment a fresh, empty CH customization-plane cache (and
/// an estimator pointing at it), so every replay of the stream prices its
/// planes from scratch, as a new serving day would. No-op without CH.
void ResetChPlanes(ecocharge::Environment* env);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
