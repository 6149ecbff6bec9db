#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "common/rng.h"
#include "core/workload.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "spatial/index_factory.h"
#include "traj/brinkhoff.h"

namespace perfbench {

using namespace ecocharge;

namespace {

// World constants. The world is fixed; only the request stream follows the
// seed, so figures from different seeds measure the same system.
constexpr uint64_t kWorldSeed = 42;
constexpr size_t kChargers = 1000;
constexpr const char* kRegionalGraph =
    "type=grid;nx=100;ny=100;spacing=500;seed=11";

// Request schedule of one trip: the EcoCharge client's continuous loop
// (one request per ~4 km segment boundary, plus one every 4 minutes of a
// longer segment), as ContinuousTripRunner schedules it.
constexpr double kSegmentLengthM = 4000.0;
constexpr double kRecomputeWindowS = 4.0 * 60.0;
constexpr double kChargeWindowS = kSecondsPerHour;

// city_trips: a seeded sample of the world's morning-peak trajectories.
// About 63% of requests are Dynamic-Cache adaptations, so the median sits
// in the adaptation mode, well clear of the boundary with the fresh mode.
constexpr size_t kCityVehicles = 800;

// regional_ch: vehicles whose trips start spread over the whole day, so
// every fresh request prices a new CH customization plane. Each vehicle
// asks at departure and then every 400 m for the next 3.2 km: the first
// request is fresh and the eight after it lie within Q (5 km) and the
// cache TTL of it, so they are Dynamic-Cache adaptations. The fresh share
// is then one in nine (11.1%) whatever the seed, which keeps the request
// mix, and so throughput, from following the seed when a fresh request
// costs thousands of adaptations. The median sits 39 points inside the
// adaptation mode, p95 6 points inside the fresh mode, and 216 requests
// leave ten beyond p95 (p99 has only two beyond it).
constexpr size_t kRegionalVehicles = 24;
constexpr double kRegionalStepM = 400.0;
constexpr size_t kRegionalRequestsPerVehicle = 9;

// corridor_fleet: sampled trips, vehicles per trip, their departure
// stagger, and the refresh period. A 180 s stagger against the 300 s ETA
// bucket and a refresh every 1500 requests keep the corridor-hit share near
// a third, so the median sits in the miss mode.
constexpr size_t kCorridorTrips = 80;
constexpr size_t kVehiclesPerTrip = 8;
constexpr double kDepartureStaggerS = 180.0;
constexpr size_t kRefreshEvery = 1500;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<VehicleState> TripSchedule(const RoadNetwork& network,
                                       const Trajectory& trip) {
  std::vector<VehicleState> states =
      TripStates(network, trip, kSegmentLengthM, kChargeWindowS);
  std::vector<VehicleState> schedule;
  for (size_t i = 0; i < states.size(); ++i) {
    schedule.push_back(states[i]);
    const SimTime seg_end =
        i + 1 < states.size() ? states[i + 1].time : trip.EndTime();
    for (SimTime t = states[i].time + kRecomputeWindowS; t < seg_end;
         t += kRecomputeWindowS) {
      VehicleState mid = states[i];
      mid.time = t;
      mid.position = trip.PositionAt(t);
      mid.node = network.NearestNode(mid.position);
      schedule.push_back(mid);
    }
  }
  return schedule;
}

Result<std::vector<Trajectory>> RegionalTrips(const RoadNetwork& network,
                                              uint64_t seed) {
  BrinkhoffOptions o;
  o.num_objects = kRegionalVehicles;
  o.sample_interval_s = 30.0;
  o.min_trip_length_m = 5000.0;
  o.start_time = 0.0;
  o.start_time_spread_s = 22.0 * kSecondsPerHour;
  o.seed = seed;
  return GenerateBrinkhoffTrajectories(network, o);
}

// Interleaves requests by sim time; ties keep client order.
void SortByTime(std::vector<Request>* stream) {
  std::stable_sort(stream->begin(), stream->end(),
                   [](const Request& a, const Request& b) {
                     return a.state.time < b.state.time;
                   });
}

// A seeded sample of `count` of the world's trajectories.
std::vector<const Trajectory*> SampleTrips(const Dataset& dataset,
                                           size_t count, uint64_t seed) {
  std::vector<const Trajectory*> trips;
  for (const Trajectory& t : dataset.trajectories) trips.push_back(&t);
  Rng rng(seed);
  rng.Shuffle(trips);
  trips.resize(std::min(count, trips.size()));
  return trips;
}

Status BuildCityStream(uint64_t seed, Workload* w) {
  const RoadNetwork& network = *w->env->dataset.network;
  const std::vector<const Trajectory*> trips =
      SampleTrips(w->env->dataset, kCityVehicles, seed);
  for (size_t v = 0; v < trips.size(); ++v) {
    for (const VehicleState& s : TripSchedule(network, *trips[v])) {
      w->stream.push_back({v, s, Refresh::kNone});
    }
  }
  SortByTime(&w->stream);
  return Status::OK();
}

Status BuildRegionalStream(uint64_t seed, Workload* w) {
  const RoadNetwork& network = *w->env->dataset.network;
  ECOCHARGE_ASSIGN_OR_RETURN(
      std::vector<Trajectory> trips,
      RegionalTrips(network, seed));
  for (size_t v = 0; v < trips.size(); ++v) {
    const std::vector<VehicleState> steps =
        TripStates(network, trips[v], kRegionalStepM, kChargeWindowS);
    for (size_t i = 0; i < std::min(steps.size(), kRegionalRequestsPerVehicle);
         ++i) {
      w->stream.push_back({v, steps[i], Refresh::kNone});
    }
  }
  SortByTime(&w->stream);
  return Status::OK();
}

Status BuildCorridorStream(uint64_t seed, Workload* w) {
  const RoadNetwork& network = *w->env->dataset.network;
  const std::vector<const Trajectory*> trips =
      SampleTrips(w->env->dataset, kCorridorTrips, seed);
  for (size_t t = 0; t < trips.size(); ++t) {
    const std::vector<VehicleState> schedule =
        TripSchedule(network, *trips[t]);
    for (size_t v = 0; v < kVehiclesPerTrip; ++v) {
      const uint64_t client = t * kVehiclesPerTrip + v;
      for (VehicleState s : schedule) {
        s.time += static_cast<double>(v) * kDepartureStaggerS;
        s.trip_id = client;
        w->stream.push_back({client, s, Refresh::kNone});
      }
    }
  }
  SortByTime(&w->stream);
  for (size_t i = kRefreshEvery; i < w->stream.size(); i += kRefreshEvery) {
    w->stream[i].refresh_before =
        static_cast<Refresh>(1 + (i / kRefreshEvery - 1) % 3);
  }
  return Status::OK();
}

// Rebuilds the charger index the environment built, so its build time is
// measured on its own (same backend, same points: identical answers).
void RebuildSpatialIndex(Workload* w) {
  auto start = std::chrono::steady_clock::now();
  std::vector<Point> points;
  points.reserve(w->env->chargers.size());
  for (const EvCharger& c : w->env->chargers) points.push_back(c.position);
  auto index = MakeSpatialIndex(w->env->index_kind);
  index->Build(std::move(points));
  w->env->charger_index = std::move(index);
  w->setup.spatial_build_s = SecondsSince(start);
}

EnvironmentOptions OldenburgOptions() {
  EnvironmentOptions o;
  o.kind = DatasetKind::kOldenburg;
  o.dataset_scale = 1.0;  // the paper's 4,000 Oldenburg objects
  o.num_chargers = kChargers;
  o.seed = kWorldSeed;
  return o;
}

Status BuildOldenburg(Workload* w) {
  auto start = std::chrono::steady_clock::now();
  ECOCHARGE_ASSIGN_OR_RETURN(w->env, MakeEnvironment(OldenburgOptions()));
  w->setup.graph_build_s = SecondsSince(start);
  return Status::OK();
}

Status BuildRegional(const std::string& work_dir, Workload* w) {
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) return Status::IOError("cannot create " + work_dir);
  const std::string snapshot = work_dir + "/regional_ch.ecgsnap";

  auto start = std::chrono::steady_clock::now();
  ECOCHARGE_ASSIGN_OR_RETURN(std::shared_ptr<RoadNetwork> network,
                             GenerateNetwork(kRegionalGraph));
  w->setup.graph_build_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  ECOCHARGE_ASSIGN_OR_RETURN(std::shared_ptr<ChIndex> ch,
                             BuildChIndex(*network));
  w->setup.ch_contract_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  ChSnapshotViews views = ToSnapshotViews(ch);
  ECOCHARGE_RETURN_NOT_OK(SaveSnapshot(*network, snapshot, nullptr, &views));
  EnvironmentOptions o = OldenburgOptions();
  o.dataset_scale = 0.0025;  // the regional stream generates its own trips
  o.graph_snapshot = snapshot;
  o.derouting_backend = DeroutingBackend::kCh;
  o.ch_threads = 0;  // serial customization: no host-dependent threads
  ECOCHARGE_ASSIGN_OR_RETURN(w->env, MakeEnvironment(o));
  w->setup.graph_build_s += SecondsSince(start);
  w->eco.ch = w->env->ch.get();
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"city_trips", "regional_ch",
                                                 "corridor_fleet"};
  return names;
}

Result<Workload> BuildWorkload(const std::string& name, uint64_t seed,
                               const std::string& work_dir) {
  auto start = std::chrono::steady_clock::now();
  Workload w;
  w.name = name;
  if (name == "city_trips") {
    ECOCHARGE_RETURN_NOT_OK(BuildOldenburg(&w));
  } else if (name == "regional_ch") {
    ECOCHARGE_RETURN_NOT_OK(BuildRegional(work_dir, &w));
    w.sc_samples = 3;
  } else if (name == "corridor_fleet") {
    ECOCHARGE_RETURN_NOT_OK(BuildOldenburg(&w));
    w.corridor = true;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  RebuildSpatialIndex(&w);

  auto stream_start = std::chrono::steady_clock::now();
  const uint64_t stream_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  if (name == "city_trips") {
    ECOCHARGE_RETURN_NOT_OK(BuildCityStream(stream_seed, &w));
  } else if (name == "regional_ch") {
    ECOCHARGE_RETURN_NOT_OK(BuildRegionalStream(stream_seed, &w));
  } else {
    ECOCHARGE_RETURN_NOT_OK(BuildCorridorStream(stream_seed, &w));
  }
  w.setup.stream_s = SecondsSince(stream_start);
  w.setup.total_s = SecondsSince(start);
  return w;
}

uint64_t StreamDigest(const std::vector<Request>& stream) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
    h ^= h >> 29;
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  for (const Request& r : stream) {
    const VehicleState& s = r.state;
    mix(r.client_id);
    mix(static_cast<uint64_t>(r.refresh_before));
    mix_double(s.position.x);
    mix_double(s.position.y);
    mix(s.node);
    mix_double(s.time);
    mix_double(s.return_point_a.x);
    mix_double(s.return_point_a.y);
    mix_double(s.return_point_b.x);
    mix_double(s.return_point_b.y);
    mix(s.return_node_a);
    mix(s.return_node_b);
    mix_double(s.charge_window_s);
    mix(s.segment_index);
    mix(s.trip_id);
  }
  return h;
}

void ResetChPlanes(Environment* env) {
  if (env->ch == nullptr || env->ch_cache == nullptr) return;
  EcEstimatorOptions opts = env->estimator->options();
  env->ch_cache = std::make_shared<ChCustomizationCache>(*env->ch,
                                                         opts.ch_threads);
  opts.ch_cache = env->ch_cache.get();
  env->estimator = std::make_unique<EcEstimator>(
      env->dataset.network, &env->chargers, env->energy.get(),
      env->availability.get(), env->congestion.get(), opts);
}

}  // namespace perfbench
