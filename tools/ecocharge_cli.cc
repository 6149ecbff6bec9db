// ecocharge_cli — command-line front end for the library.
//
// Subcommands:
//   gen-network    synthesize a road network and write it as .ecg text
//   gen-dataset    synthesize one of the four paper datasets (network +
//                  trajectories) to files
//   graph build    run a generator spec and write a binary mmap snapshot
//   graph info     print the header/section layout of a snapshot
//   rank           one-shot CkNN-EC query at a position/time
//   simulate       run the renewable-hoarding fleet simulation
//   serve          push a wire-protocol workload through the concurrent
//                  OfferingServer and report throughput (--statsz adds a
//                  JSON metrics dump)
//   stats          run a small workload and print the observability
//                  metric catalog (statsz text or JSON)
//   info           print library and dataset information
//
// Run with no arguments for usage.

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "core/baselines.h"
#include "core/fleet_sim.h"
#include "core/load_balancer.h"
#include "core/workload.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/shortest_path.h"
#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "obs/statsz.h"
#include "server/corridor_cache.h"
#include "server/offering_server.h"
#include "server/world_epochs.h"
#include "traj/io.h"

namespace ecocharge {
namespace {

/// The flags one subcommand accepts, as space-separated names per value
/// kind: text takes any string, a switch no value, a count an unsigned and
/// an integer a signed 64-bit integer, a number a finite double.
struct FlagSet {
  std::string text{}, switches{}, counts{}, integers{}, numbers{};
};

bool Listed(const std::string& names, const std::string& name) {
  return (" " + names + " ").find(" " + name + " ") != std::string::npos;
}

/// Parses the whole of `text` as a T; nullopt when it is malformed or out
/// of T's range (from_chars takes no sign on unsigned types).
template <typename T>
std::optional<T> ParseNumber(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// The --flag values of one subcommand, checked against its FlagSet: an
/// unknown flag, a stray token, a missing value, or a number that is
/// malformed, out of range or not finite is a kInvalidArgument, so the
/// getters never see an unparsable value. Values may be negative numbers —
/// only a leading "--" marks a flag.
class Args {
 public:
  static Result<Args> Parse(int argc, char** argv, int first,
                            const FlagSet& known) {
    Args args;
    for (int i = first; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument '" + flag + "'");
      }
      const std::string name = flag.substr(2);
      if (Listed(known.switches, name)) {
        args.values_[name] = "1";
        continue;
      }
      const bool count = Listed(known.counts, name);
      const bool integer = Listed(known.integers, name);
      const bool number = Listed(known.numbers, name);
      if (!count && !integer && !number && !Listed(known.text, name)) {
        return Status::InvalidArgument("unknown flag " + flag);
      }
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      const std::string value = argv[++i];
      const std::optional<double> real = ParseNumber<double>(value);
      if ((count && !ParseNumber<uint64_t>(value)) ||
          (integer && !ParseNumber<int64_t>(value)) ||
          (number && !(real && std::isfinite(*real)))) {
        return Status::InvalidArgument(flag + " '" + value +
                                       "' is malformed, out of range or "
                                       "not finite");
      }
      args.values_[name] = value;
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    return Number<double>(key, fallback);
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    return Number<uint64_t>(key, fallback);
  }
  /// Signed read of a kInteger flag, so a range check can name a negative
  /// value instead of seeing it wrapped.
  int64_t GetI64(const std::string& key, int64_t fallback) const {
    return Number<int64_t>(key, fallback);
  }
  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

 private:
  template <typename T>
  T Number(const std::string& key, T fallback) const {
    auto it = values_.find(key);
    return it == values_.end()
               ? fallback
               : ParseNumber<T>(it->second).value_or(fallback);
  }

  std::map<std::string, std::string> values_;
};

Result<DatasetKind> ParseDatasetKind(const std::string& name) {
  for (DatasetKind kind : AllDatasetKinds()) {
    std::string lower(DatasetName(kind));
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    std::string needle = name;
    for (char& c : needle) c = static_cast<char>(std::tolower(c));
    needle.erase(std::remove(needle.begin(), needle.end(), '-'),
                 needle.end());
    lower.erase(std::remove(lower.begin(), lower.end(), '-'), lower.end());
    if (lower == needle) return kind;
  }
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "' (oldenburg|california|tdrive|geolife)");
}

int Usage() {
  std::cout <<
      R"(ecocharge_cli — EcoCharge / CkNN-EC command line

  gen-network  --style grid|radial|geometric|corridor --out FILE.ecg
               [--seed N]
  gen-dataset  --kind oldenburg|california|tdrive|geolife --scale 0.01
               --out PREFIX [--seed N]      (writes PREFIX.ecg, PREFIX.ect)
  graph build  --spec "type=grid;nx=1000;ny=1000;seed=7" --out FILE.ecgs
               (spec types: grid|rgg|hyperbolic stream in bounded-memory
               chunks; radial|corridor build in memory. The snapshot is a
               versioned binary that mmap-loads in O(1))
  graph info   --in FILE.ecgs [--load]
               (print a snapshot's version, counts, bounds, and sections —
               including CH section presence; --load also
               mmap-loads the full graph, reports the load time, and runs
               a sanity sweep)
  graph ch     --in FILE.ecgs --out FILE.ecgs [--ch-threads N]
               (contract the snapshot's network and write a copy that also
               embeds the hierarchy: rank array + upward/downward shortcut
               CSR, mmap-loaded zero-copy by --derouting ch; the summary
               also times one full customization sweep with --ch-threads
               workers, -1 = hardware concurrency, 0 = serial)
  rank         --kind KIND [--chargers N] [--k K] [--radius-km R]
               [--hour H] [--seed N] [--index BACKEND] [--no-simd]
               [--graph-snapshot FILE.ecgs] [--derouting ch|exact]
               [--ch-threads N]
               (query at a sample trip state; --ch-threads sets the CH
               customization worker count, -1 = hardware concurrency,
               0 = serial — bit-identical either way)
  simulate     --kind KIND [--vehicles N] [--chargers N] [--seed N]
               [--index BACKEND] [--no-simd]
               (fleet hoarding: EcoCharge vs nearest-charger policies)
  serve        --threads N [--kind KIND] [--chargers N] [--clients N]
               [--requests N] [--queue-depth N] [--io-ms MS] [--seed N]
               [--statsz] [--statsz-period SEC] [--refresh-every N]
               [--corridor-cache [--corridor-bucket-s SEC]]
               [--fault-p P] [--fault-spike-p P] [--fault-stall-p P]
               [--fault-seed N] [--retry-attempts N] [--deadline-ms MS]
               [--resilient] [--no-simd]
               (--threads 0 = synchronous deterministic mode; --statsz
               prints a final JSON metrics dump to stdout, and with a
               period > 0 a live text dump to stderr every SEC seconds;
               any --fault-* probability > 0 injects deterministic
               upstream faults and serves through the resilient EIS —
               retries, circuit breakers, stale/climatological
               degradation; --resilient enables the resilient EIS with
               no injected faults; --refresh-every N publishes an RCU
               world-epoch refresh every N requests, rotating weather,
               availability and traffic; --corridor-cache shares
               Offering Tables across vehicles on the same corridor,
               bucketed by --corridor-bucket-s seconds of ETA (default
               300, at most the 900 s entry TTL); rankings are
               bit-identical at every --threads either way)
  stats        [--kind KIND] [--chargers N] [--requests N] [--threads N]
               [--format text|json] [--seed N]
               (run a small serving workload and print the metric catalog)
  info

  BACKEND: quadtree|linear (charger index: the production quadtree or
  the linear-scan oracle; both produce identical rankings — the choice
  only affects query time)

  --no-simd (rank/simulate/serve): escape hatch that routes the filter/
  score phase through the scalar reference kernels instead of the SIMD
  hot path; rankings are bit-identical either way (the scalar path is the
  parity oracle), only the query time changes.

  --graph-snapshot (rank/simulate/serve/stats): mmap-load the road network
  from a `graph build` snapshot instead of synthesizing it; the dataset
  kind still shapes the trajectory workload.

  Every subcommand rejects flags it does not know, stray arguments, and
  malformed or out-of-range numbers: InvalidArgument, exit status 2.

  --derouting ch|exact (rank/simulate/serve/stats): exact-derouting
  backend. `ch` answers refinement legs over a contraction hierarchy
  (loaded from the snapshot's CH section when present, contracted at
  startup otherwise) with Offering Tables bit-identical to `exact`, the
  Dijkstra-sweep oracle (default), at every --k: both refine the same
  first candidates of the eq. 6 selection, in score order. A batch reads
  a customized plane only when one is already published, and these
  subcommands publish none: exact costs are priced at each query's own
  instant, so every batch, like any batch the hierarchy rejects, is
  answered by the Dijkstra sweeps (ch.cache.deferred counts the plane
  misses).
)";
  return 2;
}

int GraphBuild(const Args& args) {
  std::string spec = args.Get("spec", "");
  if (spec.empty()) {
    std::cerr << "graph build needs --spec \"type=...;key=value;...\"\n";
    return 1;
  }
  std::string out = args.Get("out", "network.ecgs");
  auto network = GenerateNetwork(spec);
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  Status st = SaveSnapshot(**network, out);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << out << " (" << (*network)->NumNodes()
            << " nodes, " << (*network)->NumEdges() << " edges)\n";
  return 0;
}

int GraphInfo(const Args& args) {
  std::string in = args.Get("in", "");
  if (in.empty()) {
    std::cerr << "graph info needs --in FILE.ecgs\n";
    return 1;
  }
  auto info = ReadSnapshotInfo(in);
  if (!info.ok()) {
    std::cerr << info.status() << "\n";
    return 1;
  }
  std::cout << in << ": snapshot v" << info->version << "\n"
            << "  nodes:     " << info->num_nodes << "\n"
            << "  edges:     " << info->num_edges << "\n"
            << "  landmarks: " << info->num_landmarks << "\n";
  if (info->has_ch) {
    std::cout << "  ch:        yes (" << info->ch_up_arcs << " up arcs, "
              << info->ch_down_arcs << " down arcs)\n";
  } else {
    std::cout << "  ch:        no\n";
  }
  std::cout << "  bounds:    [" << info->bounds.min.x << ", "
            << info->bounds.min.y << "] - [" << info->bounds.max.x << ", "
            << info->bounds.max.y << "]\n"
            << "  file:      " << info->file_bytes << " bytes\n"
            << "  sections:\n";
  for (const auto& [id, bytes] : info->sections) {
    std::cout << "    " << SnapshotSectionName(id) << " (id " << id
              << "): " << bytes << " bytes\n";
  }
  if (args.Has("load")) {
    auto start = std::chrono::steady_clock::now();
    auto network = LoadSnapshot(in);
    if (!network.ok()) {
      std::cerr << network.status() << "\n";
      return 1;
    }
    double load_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    DijkstraSearch search(**network);
    size_t settled = search.OneToMany(0, 10000.0, LengthCost);
    std::cout << "  mmap load: " << load_ms << " ms ("
              << (*network)->NumNodes() << " nodes; sanity sweep from node "
              << "0 settled " << settled << " within 10 km)\n";
  }
  return 0;
}

int GraphCh(const Args& args) {
  std::string in = args.Get("in", "");
  std::string out = args.Get("out", "");
  if (in.empty() || out.empty()) {
    std::cerr << "graph ch needs --in FILE.ecgs --out FILE.ecgs\n";
    return 1;
  }
  auto loaded = LoadSnapshotWithAux(in);
  if (!loaded.ok()) {
    std::cerr << loaded.status() << "\n";
    return 1;
  }
  const RoadNetwork& network = *loaded->network;
  ChBuildStats stats;
  auto start = std::chrono::steady_clock::now();
  auto ch = BuildChIndex(network, &stats);
  if (!ch.ok()) {
    std::cerr << ch.status() << "\n";
    return 1;
  }
  double build_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  // Time one full metric customization of the freshly contracted
  // hierarchy (the per-bucket cost every serving process will pay): the
  // summary line then covers both preprocessing phases.
  int ch_threads = static_cast<int>(args.GetI64("ch-threads", -1));
  if (ch_threads < 0) {
    ch_threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  ChCustomizer customizer(**ch, ch_threads);
  auto customize_start = std::chrono::steady_clock::now();
  customizer.Customize(kChLengthWeights);
  double customize_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    customize_start)
          .count();
  ChSnapshotViews views = ToSnapshotViews(*ch);
  Status st = SaveSnapshot(network, out, nullptr, &views);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << out << " (" << network.NumNodes() << " nodes, "
            << network.NumEdges() << " edges, " << stats.shortcuts
            << " shortcuts; contracted in " << build_s << " s, "
            << stats.ordering_pops << " queue pops, max live degree "
            << stats.max_live_degree << "; customized in " << customize_s
            << " s (" << customizer.threads() << " threads, "
            << customizer.num_levels() << " levels, "
            << customizer.total_arcs() << " arcs))\n";
  return 0;
}

int GenNetwork(const Args& args) {
  std::string style = args.Get("style", "grid");
  std::string out = args.Get("out", "network.ecg");
  uint64_t seed = args.GetU64("seed", 1);
  Result<std::shared_ptr<RoadNetwork>> network =
      Status::InvalidArgument("unknown style: " + style);
  if (style == "grid") {
    GridNetworkOptions opts;
    opts.seed = seed;
    network = MakeGridNetwork(opts);
  } else if (style == "radial") {
    RadialCityOptions opts;
    opts.seed = seed;
    network = MakeRadialCity(opts);
  } else if (style == "geometric") {
    RandomGeometricOptions opts;
    opts.seed = seed;
    network = MakeRandomGeometric(opts);
  } else if (style == "corridor") {
    CorridorRegionOptions opts;
    opts.seed = seed;
    network = MakeCorridorRegion(opts);
  }
  if (!network.ok()) {
    std::cerr << network.status() << "\n";
    return 1;
  }
  Status st = SaveRoadNetworkFile(*network.value(), out);
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << out << " (" << network.value()->NumNodes()
            << " nodes, " << network.value()->NumEdges() << " edges)\n";
  return 0;
}

int GenDataset(const Args& args) {
  auto kind = ParseDatasetKind(args.Get("kind", "oldenburg"));
  if (!kind.ok()) {
    std::cerr << kind.status() << "\n";
    return 1;
  }
  DatasetOptions opts;
  opts.scale = args.GetDouble("scale", 0.01);
  opts.seed = args.GetU64("seed", 7);
  auto dataset = MakeDataset(kind.value(), opts);
  if (!dataset.ok()) {
    std::cerr << dataset.status() << "\n";
    return 1;
  }
  std::string prefix = args.Get("out", "dataset");
  Status st =
      SaveRoadNetworkFile(*dataset.value().network, prefix + ".ecg");
  if (st.ok()) {
    st = SaveTrajectoriesFile(dataset.value().trajectories, prefix + ".ect");
  }
  if (!st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  std::cout << "wrote " << prefix << ".ecg / " << prefix << ".ect ("
            << dataset.value().network->NumNodes() << " nodes, "
            << dataset.value().trajectories.size() << " trajectories)\n";
  return 0;
}

Result<std::unique_ptr<Environment>> BuildEnv(const Args& args) {
  ECOCHARGE_ASSIGN_OR_RETURN(DatasetKind kind,
                             ParseDatasetKind(args.Get("kind", "oldenburg")));
  EnvironmentOptions opts;
  opts.kind = kind;
  opts.dataset_scale = args.GetDouble("scale", 0.01);
  opts.num_chargers =
      static_cast<size_t>(args.GetU64("chargers", 500));
  opts.seed = args.GetU64("seed", 42);
  opts.graph_snapshot = args.Get("graph-snapshot", "");
  const std::string backend = args.Get("derouting", "exact");
  if (backend == "ch") {
    opts.derouting_backend = DeroutingBackend::kCh;
  } else if (backend != "exact") {
    return Status::InvalidArgument("unknown derouting backend '" + backend +
                                   "' (ch|exact)");
  }
  opts.ch_threads = static_cast<int>(args.GetI64("ch-threads", -1));
  ECOCHARGE_ASSIGN_OR_RETURN(
      opts.index_kind, ParseSpatialIndexKind(args.Get("index", "quadtree")));
  return MakeEnvironment(opts);
}

/// The EcoCharge options shared by every ranking subcommand: currently
/// just the scalar-kernel escape hatch.
EcoChargeOptions EcoOptionsFor(const Args& args) {
  EcoChargeOptions opts;
  opts.use_simd = !args.Has("no-simd");
  return opts;
}

int Rank(const Args& args) {
  auto env_result = BuildEnv(args);
  if (!env_result.ok()) {
    std::cerr << env_result.status() << "\n";
    return 1;
  }
  auto env = std::move(env_result).MoveValueUnsafe();
  size_t k = static_cast<size_t>(args.GetU64("k", 3));
  EcoChargeOptions eco_opts = EcoOptionsFor(args);
  eco_opts.radius_m = args.GetDouble("radius-km", 50.0) * 1000.0;
  EcoChargeRanker eco(env->estimator.get(), env->charger_index.get(),
                      ScoreWeights::AWE(), eco_opts);

  std::vector<VehicleState> states =
      TripStates(*env->dataset.network, env->dataset.trajectories.front(),
                 4000.0, kSecondsPerHour);
  if (states.empty()) {
    std::cerr << "no vehicle states in dataset\n";
    return 1;
  }
  VehicleState state = states[std::min<size_t>(1, states.size() - 1)];
  double hour = args.GetDouble("hour", -1.0);
  if (hour >= 0.0) state.time = hour * kSecondsPerHour;
  OfferingTable table = eco.Rank(state, k);
  std::cout << table.ToString(env->chargers);
  return 0;
}

int Simulate(const Args& args) {
  auto env_result = BuildEnv(args);
  if (!env_result.ok()) {
    std::cerr << env_result.status() << "\n";
    return 1;
  }
  auto env = std::move(env_result).MoveValueUnsafe();
  FleetSimOptions sim_opts;
  sim_opts.seed = args.GetU64("seed", 42) ^ 0x5157ULL;
  FleetSimulator sim(env.get(), sim_opts);
  auto fleet = sim.MakeFleet(static_cast<size_t>(args.GetU64("vehicles", 30)));

  EcoChargeRanker eco(env->estimator.get(), env->charger_index.get(),
                      ScoreWeights::AWE(), EcoOptionsFor(args));
  QuadtreeRanker nearest(env->estimator.get(), env->charger_index.get(),
                         ScoreWeights::AWE(), 1);
  FleetOutcome with_eco = sim.Run(fleet, eco);
  FleetOutcome with_nearest = sim.Run(fleet, nearest);
  auto report = [](const char* name, const FleetOutcome& o) {
    std::cout << name << ": clean=" << o.total_clean_kwh
              << " kWh, co2_avoided=" << o.Co2AvoidedKg()
              << " kg, derouting=" << o.total_derouting_km
              << " km, full_on_arrival=" << o.total_failed_stops << "/"
              << o.total_stops << "\n";
  };
  std::cout << fleet.size() << " vehicles on " << env->dataset.name << "\n";
  report("EcoCharge      ", with_eco);
  report("Nearest charger", with_nearest);
  return 0;
}

/// The corridor cache options the serve flags describe.
CorridorCacheOptions CorridorOptionsFor(const Args& args) {
  CorridorCacheOptions options;
  options.eta_bucket_s =
      args.GetDouble("corridor-bucket-s", options.eta_bucket_s);
  return options;
}

/// Validates the serve flags up front so misconfigurations fail with a
/// clear kInvalidArgument instead of being silently coerced (an unsigned
/// parse would wrap "--threads -2" into a huge worker count), ignored, or
/// starting a busy-looping statsz thread (period 0).
Status ValidateServeArgs(const Args& args) {
  if (args.GetI64("threads", 0) < 0) {
    return Status::InvalidArgument(
        "--threads must be >= 0 (0 = synchronous deterministic mode)");
  }
  if (args.GetI64("queue-depth", 256) <= 0) {
    return Status::InvalidArgument("--queue-depth must be a positive count");
  }
  if (args.GetI64("clients", 8) <= 0) {
    return Status::InvalidArgument("--clients must be a positive count");
  }
  if (args.GetI64("requests", 64) <= 0) {
    return Status::InvalidArgument("--requests must be a positive count");
  }
  if (args.Has("statsz-period") &&
      args.GetDouble("statsz-period", 0.0) <= 0.0) {
    return Status::InvalidArgument(
        "--statsz-period must be a positive number of seconds");
  }
  if (args.GetDouble("io-ms", 0.0) < 0.0) {
    return Status::InvalidArgument("--io-ms must be >= 0");
  }
  double fault_p = args.GetDouble("fault-p", 0.0);
  if (fault_p < 0.0 || fault_p > 1.0) {
    return Status::InvalidArgument("--fault-p must be a probability in [0,1]");
  }
  double spike_p = args.GetDouble("fault-spike-p", 0.0);
  if (spike_p < 0.0 || spike_p > 1.0) {
    return Status::InvalidArgument(
        "--fault-spike-p must be a probability in [0,1]");
  }
  double stall_p = args.GetDouble("fault-stall-p", 0.0);
  if (stall_p < 0.0 || stall_p > 1.0) {
    return Status::InvalidArgument(
        "--fault-stall-p must be a probability in [0,1]");
  }
  if (args.GetI64("retry-attempts", 4) < 1) {
    return Status::InvalidArgument("--retry-attempts must be >= 1");
  }
  if (args.GetDouble("deadline-ms", 250.0) <= 0.0) {
    return Status::InvalidArgument("--deadline-ms must be > 0");
  }
  if (args.GetI64("refresh-every", 0) < 0) {
    return Status::InvalidArgument(
        "--refresh-every must be >= 0 requests (0 = no refreshes)");
  }
  if (!args.Has("corridor-cache")) {
    if (args.Has("corridor-bucket-s")) {
      return Status::InvalidArgument(
          "--corridor-bucket-s needs --corridor-cache");
    }
  } else if (Status st = CorridorOptionsFor(args).Validate(); !st.ok()) {
    return Status::InvalidArgument("--corridor-bucket-s: " + st.message());
  }
  return Status::OK();
}

int Serve(const Args& args) {
  if (Status st = ValidateServeArgs(args); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  auto env_result = BuildEnv(args);
  if (!env_result.ok()) {
    std::cerr << env_result.status() << "\n";
    return 1;
  }
  auto env = std::move(env_result).MoveValueUnsafe();

  WorkloadOptions wo;
  wo.max_trips = 8;
  wo.max_states = 16;
  wo.seed = args.GetU64("seed", 42) ^ 0xBEEFULL;
  std::vector<VehicleState> states = BuildWorkload(env->dataset, wo);
  if (states.empty()) {
    std::cerr << "no vehicle states in dataset\n";
    return 1;
  }

  OfferingServerOptions server_opts;
  server_opts.threads = static_cast<int>(args.GetI64("threads", 0));
  server_opts.queue_depth = static_cast<size_t>(args.GetI64("queue-depth",
                                                            256));
  server_opts.simulated_io_ms = args.GetDouble("io-ms", 0.0);

  // Fault-injection flags: any non-zero probability switches the shared
  // EIS to the resilient decorator with that profile on every upstream.
  double fault_p = args.GetDouble("fault-p", 0.0);
  double spike_p = args.GetDouble("fault-spike-p", 0.0);
  double stall_p = args.GetDouble("fault-stall-p", 0.0);
  bool faulted = fault_p > 0.0 || spike_p > 0.0 || stall_p > 0.0;
  if (faulted || args.Has("resilient")) {
    server_opts.resilient_eis = true;
    resilience::FaultProfile profile;
    profile.error_probability = fault_p;
    profile.spike_probability = spike_p;
    profile.stall_probability = stall_p;
    server_opts.resilience.faults = resilience::FaultInjectorOptions::Uniform(
        profile, args.GetU64("fault-seed", 0x0FA117ULL));
    server_opts.resilience.retry.max_attempts =
        static_cast<int>(args.GetI64("retry-attempts", 4));
    server_opts.request_deadline_ms = args.GetDouble("deadline-ms", 250.0);
  }

  // One world-version ring (a reader slot per worker) that
  // --refresh-every publishes into, and with --corridor-cache one corridor
  // cache, both shared by every worker.
  WorldEpochs epochs(static_cast<size_t>(std::max(1, server_opts.threads)));
  server_opts.epochs = &epochs;
  std::optional<CorridorCache> corridor;
  if (args.Has("corridor-cache")) {
    corridor.emplace(env->dataset.network.get(), CorridorOptionsFor(args));
    server_opts.corridor = &*corridor;
  }
  OfferingServer server(env.get(), ScoreWeights::AWE(),
                        EcoOptionsFor(args), server_opts);

  uint64_t num_clients = args.GetU64("clients", 8);
  uint64_t num_requests = args.GetU64("requests", 64);
  uint64_t refresh_every = args.GetU64("refresh-every", 0);

  // --statsz: final JSON dump on stdout; with a period, also a live text
  // dump on stderr while the workload runs (the "statsz page" of the
  // serving runtime).
  bool statsz = args.Has("statsz");
  double statsz_period_s = args.GetDouble("statsz-period", 0.0);
  std::atomic<bool> statsz_stop{false};
  std::thread statsz_thread;
  if (statsz_period_s > 0.0) {
    statsz_thread = std::thread([&server, &statsz_stop, statsz_period_s] {
      while (!statsz_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(statsz_period_s));
        if (statsz_stop.load(std::memory_order_acquire)) break;
        std::cerr << obs::StatszText(server.metrics());
      }
    });
  }

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_requests; ++i) {
    if (refresh_every > 0 && i > 0 && i % refresh_every == 0) {
      // Rotate through the upstreams so every refresh kind gets
      // exercised; publishes interleave with in-flight requests.
      const uint64_t kind = (i / refresh_every) % 3;
      epochs.Publish(states[i % states.size()].time,
                     [kind](WorldSnapshot* snapshot) {
                       WorldRevisions& r = snapshot->revisions;
                       uint64_t* revision[] = {&r.weather, &r.availability,
                                               &r.traffic};
                       ++*revision[kind];
                     });
    }
    OfferingRequest request;
    request.state = states[i % states.size()];
    request.k = 3;
    Status st = server.SubmitWire(i % num_clients,
                                  EncodeOfferingRequest(request),
                                  [](const Result<std::string>&) {});
    // kUnavailable = admission control shed the request; that is the
    // intended overload behavior, not an error.
    if (!st.ok() && st.code() != StatusCode::kUnavailable) {
      std::cerr << st << "\n";
      return 1;
    }
  }
  server.Drain();
  double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  OfferingServerStats stats = server.Stats();
  EisCallStats eis = server.information_server().Snapshot();
  std::cout << "served " << stats.served << "/" << num_requests
            << " requests (" << stats.rejected << " shed) with "
            << server.threads() << " worker thread(s) in " << elapsed_s
            << " s\n"
            << "throughput: " << (elapsed_s > 0.0
                                      ? stats.served / elapsed_s
                                      : 0.0)
            << " req/s\n";
  if (corridor) {
    CacheStats cs = corridor->stats();
    uint64_t lookups = cs.hits + cs.misses;
    std::cout << "corridor cache: hits=" << cs.hits
              << " misses=" << cs.misses << " inserts=" << corridor->inserts()
              << " hit-rate="
              << (lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0)
              << "\n";
  } else {
    std::cout << "dynamic-cache adaptations: " << stats.cache_adaptations
              << "\n";
  }
  std::cout << "eis upstream calls: weather=" << eis.weather_api_calls
            << " traffic=" << eis.traffic_api_calls
            << " availability=" << eis.availability_api_calls << "\n";
  if (resilience::ResilientInformationServer* res = server.resilient_eis()) {
    std::cout << "degraded tables: " << stats.degraded_tables << "\n";
    SimTime at = states.back().time;
    for (resilience::UpstreamKind kind : resilience::kAllUpstreamKinds) {
      resilience::UpstreamResilienceStats rs = res->ResilienceSnapshot(kind,
                                                                       at);
      std::cout << "resilience " << resilience::UpstreamKindName(kind)
                << ": retries=" << rs.retries << " stale=" << rs.stale_serves
                << " climatological=" << rs.climatological_serves
                << " breaker_opens=" << rs.breaker_opens << " state="
                << resilience::BreakerStateName(rs.breaker_state) << "\n";
    }
  }
  std::cout << "world epoch: " << epochs.current_epoch() << "\n";
  if (statsz_thread.joinable()) {
    statsz_stop.store(true, std::memory_order_release);
    statsz_thread.join();
  }
  if (statsz) std::cout << obs::StatszJson(server.metrics()) << "\n";
  return 0;
}

int StatsCmd(const Args& args) {
  auto env_result = BuildEnv(args);
  if (!env_result.ok()) {
    std::cerr << env_result.status() << "\n";
    return 1;
  }
  auto env = std::move(env_result).MoveValueUnsafe();

  WorkloadOptions wo;
  wo.max_trips = 4;
  wo.max_states = 8;
  wo.seed = args.GetU64("seed", 42) ^ 0xBEEFULL;
  std::vector<VehicleState> states = BuildWorkload(env->dataset, wo);
  if (states.empty()) {
    std::cerr << "no vehicle states in dataset\n";
    return 1;
  }

  uint64_t num_requests = args.GetU64("requests", 32);
  bool json = args.Get("format", "text") == "json";

  OfferingServerOptions server_opts;
  server_opts.threads = static_cast<int>(args.GetU64("threads", 0));
  OfferingServer server(env.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        server_opts);
  for (uint64_t i = 0; i < num_requests; ++i) {
    Status st = server.Submit(i % 4, states[i % states.size()], 3,
                              [](const OfferingTable&) {});
    if (!st.ok() && st.code() != StatusCode::kUnavailable) {
      std::cerr << st << "\n";
      return 1;
    }
  }
  server.Drain();

  if (json) {
    std::cout << obs::StatszJson(server.metrics()) << "\n";
  } else {
    std::cout << obs::StatszText(server.metrics());
  }
  return 0;
}

int Info() {
  std::cout << "ecocharge 1.0.0 — CkNN-EC / EcoCharge reproduction\n"
            << "datasets:";
  for (DatasetKind kind : AllDatasetKinds()) {
    std::cout << " " << DatasetName(kind);
  }
  std::cout << "\nmethods: Brute-Force, Index-Quadtree, Random, EcoCharge, "
               "EcoCharge-Balanced\nindex backends:";
  for (SpatialIndexKind kind : kAllSpatialIndexKinds) {
    std::cout << " " << SpatialIndexKindName(kind);
  }
  std::cout << "\n";
  return 0;
}

/// `extra` plus the flags of every subcommand that builds an Environment.
FlagSet EnvFlags(FlagSet extra) {
  extra.text += " kind graph-snapshot derouting index";
  extra.counts += " chargers seed";
  extra.integers += " ch-threads";
  extra.numbers += " scale";
  return extra;
}

struct Command {
  const char* name;
  int (*run)(const Args&);
  FlagSet flags;  // {text, switches, counts, integers, numbers}
};

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const bool graph = std::strcmp(argv[1], "graph") == 0;
  if (graph && argc < 3) return Usage();
  const std::string name = graph ? std::string("graph ") + argv[2] : argv[1];
  const Command commands[] = {
      {"gen-network", GenNetwork, {"style out", "", "seed"}},
      {"gen-dataset", GenDataset, {"kind out", "", "seed", "", "scale"}},
      {"graph build", GraphBuild, {"spec out"}},
      {"graph info", GraphInfo, {"in", "load"}},
      {"graph ch", GraphCh, {"in out", "", "", "ch-threads"}},
      {"rank", Rank, EnvFlags({"", "no-simd", "k", "", "radius-km hour"})},
      {"simulate", Simulate, EnvFlags({"", "no-simd", "vehicles"})},
      {"serve", Serve,
       EnvFlags({"", "resilient corridor-cache statsz no-simd",
                 "fault-seed",
                 "threads queue-depth clients requests refresh-every "
                 "retry-attempts",
                 "io-ms fault-p fault-spike-p fault-stall-p deadline-ms "
                 "corridor-bucket-s statsz-period"})},
      {"stats", StatsCmd, EnvFlags({"format", "", "requests threads"})},
      {"info", [](const Args&) { return Info(); }, {}},
  };
  for (const Command& command : commands) {
    if (name != command.name) continue;
    Result<Args> args = Args::Parse(argc, argv, graph ? 3 : 2, command.flags);
    if (!args.ok()) {
      std::cerr << args.status() << "\n";
      return 2;
    }
    return command.run(*args);
  }
  return Usage();
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
