// Micro-benchmarks and asserting gates of the road-network substrate.
//
// The google-benchmark section times the searches the rest of the program
// runs: the multi-target sweep the derouting EC is computed with, A* (the
// trajectory generator's point-to-point search) and snapshot loading.
//
// Two asserting gates then pin the compact-graph-core contract (the binary
// exits 1 when either breaks):
//   1. the production multi-target sweep (inlined CSR arcs, packed labels)
//      runs >= 1.3x faster than a faithful replica of the sweep as it
//      shipped pre-refactor (per-node EdgeId lists indirecting into a
//      24-byte full-edge array, three parallel label arrays, a per-call
//      O(V) settled buffer) given the same stop rule, at identical settled
//      counts and target costs;
//   2. mmap-loading a >= 1M-node snapshot is >= 10x faster than
//      regenerating the same graph.
// Timing uses interleaved min-of-rounds (see bench_micro_obs.cc for why).
// All records — gbench runs and gate results — land in BENCH_graph.json.
//
// Flags: --quick shrinks the gate graphs; everything else is forwarded to
// google-benchmark (--benchmark_filter etc.).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_gbench_json.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/shortest_path.h"

namespace ecocharge {
namespace {

std::shared_ptr<RoadNetwork> SharedNetwork() {
  static std::shared_ptr<RoadNetwork> network = [] {
    GridNetworkOptions opts;
    opts.nx = 40;
    opts.ny = 30;
    opts.spacing_m = 800.0;
    opts.seed = 5;
    return MakeGridNetwork(opts).MoveValueUnsafe();
  }();
  return network;
}

/// One forward sweep from a random source until `state.range(0)` random
/// targets have settled: the derouting EC's search.
void BM_Sweep(benchmark::State& state) {
  auto network = SharedNetwork();
  DijkstraSearch search(*network);
  Rng rng(11);
  std::vector<NodeId> targets(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    for (NodeId& t : targets) {
      t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    }
    benchmark::DoNotOptimize(search.OneToMany(s, targets, LengthCost));
  }
  state.SetLabel("targets=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Sweep)->Arg(1)->Arg(8);

void BM_AStar(benchmark::State& state) {
  auto network = SharedNetwork();
  DijkstraSearch search(*network);
  Rng rng(11);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    NodeId t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
    benchmark::DoNotOptimize(search.AStar(s, t));
  }
}
BENCHMARK(BM_AStar);

void BM_SnapshotLoad(benchmark::State& state) {
  static const std::string path = [] {
    std::string p = "/tmp/bench_micro_graph_small." +
                    std::to_string(::getpid()) + ".ecgs";
    SaveSnapshot(*SharedNetwork(), p);
    return p;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LoadSnapshot(path));
  }
}
BENCHMARK(BM_SnapshotLoad);

// ---------------------------------------------------------------------------
// Gate 1: inlined CSR vs pre-refactor layout.
// ---------------------------------------------------------------------------

constexpr double kMinSweepSpeedup = 1.3;
constexpr double kMinSnapshotSpeedup = 10.0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The layout this refactor replaced: per-node adjacency as EdgeId lists
/// indirecting into a 24-byte full-edge array. Rebuilt faithfully from the
/// current network so both sides sweep the identical graph.
struct LegacyLayout {
  std::vector<Edge> edges;            // EdgeId -> {from, to, length, class}
  std::vector<uint32_t> out_offsets;  // CSR over EdgeIds
  std::vector<EdgeId> out_edge_ids;
};

LegacyLayout MakeLegacy(const RoadNetwork& network) {
  LegacyLayout legacy;
  const NodeId n = static_cast<NodeId>(network.NumNodes());
  // Rebuild the pre-refactor edge array in builder insertion order: the
  // generators added each undirected road once, from its lower-id endpoint,
  // via AddBidirectional — forward and reverse records appended adjacently,
  // so a node's id list points at slots scattered across the array. (Only
  // valid for symmetric networks like the one this gate sweeps.) Per-node
  // out-degrees are unchanged by the id permutation, so the current offsets
  // carry over and the ids scatter through cursors.
  legacy.out_offsets.assign(network.out_offsets().begin(),
                            network.out_offsets().end());
  legacy.out_edge_ids.resize(network.NumEdges());
  std::vector<uint32_t> cursor(legacy.out_offsets.begin(),
                               legacy.out_offsets.end() - 1);
  legacy.edges.reserve(network.NumEdges());
  for (NodeId v = 0; v < n; ++v) {
    for (const Arc& a : network.OutArcs(v)) {
      if (a.node < v) continue;  // appended with its lower-endpoint pair
      EdgeId fwd = static_cast<EdgeId>(legacy.edges.size());
      legacy.edges.push_back(Edge{v, a.node, a.length_m, a.road_class});
      legacy.edges.push_back(Edge{a.node, v, a.length_m, a.road_class});
      legacy.out_edge_ids[cursor[v]++] = fwd;
      legacy.out_edge_ids[cursor[a.node]++] = fwd + 1;
    }
  }
  return legacy;
}

/// The sweep exactly as it shipped before the refactor (see
/// src/graph/shortest_path.cc at the previous release): EdgeId indirection
/// into the full-edge array, three parallel label arrays, a per-call O(V)
/// settled buffer, a per-edge dist_[v] reload, and a std::function cost
/// over the 24-byte Edge record. It is given the production sweep's stop
/// rule: stop once every target has settled, the targets kept in a sorted
/// list.
class LegacySweeper {
 public:
  explicit LegacySweeper(const LegacyLayout& layout)
      : layout_(layout),
        num_nodes_(layout.out_offsets.size() - 1),
        dist_(num_nodes_, kInfiniteCost),
        parent_(num_nodes_, kInvalidNode),
        version_(num_nodes_, 0) {}

  /// Returns the number of settled nodes.
  size_t OneToMany(NodeId source, std::vector<NodeId> targets,
                   const std::function<double(const Edge&)>& cost) {
    ++epoch_;
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    size_t pending = targets.size();
    struct Entry {
      double d;
      NodeId v;
    };
    auto later = [](const Entry& a, const Entry& b) { return a.d > b.d; };
    std::priority_queue<Entry, std::vector<Entry>, decltype(later)> heap(
        later);
    dist_[source] = 0.0;
    parent_[source] = kInvalidNode;
    version_[source] = epoch_;
    heap.push({0.0, source});
    std::vector<char> settled(num_nodes_, 0);
    size_t settled_count = 0;
    while (pending > 0 && !heap.empty()) {
      auto [d, v] = heap.top();
      heap.pop();
      if (settled[v]) continue;
      settled[v] = 1;
      ++settled_count;
      if (std::binary_search(targets.begin(), targets.end(), v)) --pending;
      for (uint32_t i = layout_.out_offsets[v];
           i < layout_.out_offsets[v + 1]; ++i) {
        const Edge& e = layout_.edges[layout_.out_edge_ids[i]];
        double nd = dist_[v] + cost(e);
        if (version_[e.to] != epoch_ || nd < dist_[e.to]) {
          version_[e.to] = epoch_;
          dist_[e.to] = nd;
          parent_[e.to] = v;
          heap.push({nd, e.to});
        }
      }
    }
    return settled_count;
  }

  double CostTo(NodeId v) const {
    return version_[v] == epoch_ ? dist_[v] : kInfiniteCost;
  }

 private:
  const LegacyLayout& layout_;
  size_t num_nodes_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;
  std::vector<uint32_t> version_;
  uint32_t epoch_ = 0;
};

/// One gate query: a source and the targets it sweeps to.
struct SweepQuery {
  NodeId source;
  std::vector<NodeId> targets;
};

bool SweepLayoutGate(bench::BenchJsonWriter& json, bool quick) {
  // Random-geometric at continental scale: degree ~8 (the dense-urban end
  // of road networks) and enough nodes that one round of sweeps overflows
  // even a server-class L3 — the regime the inlined layout exists for.
  // Small graphs stay cache-resident in either layout and show ~1x.
  StreamingGeometricOptions opts;
  opts.num_nodes = quick ? 2500000 : 4000000;
  opts.width_m = quick ? 480000.0 : 600000.0;
  opts.height_m = quick ? 480000.0 : 600000.0;
  opts.target_degree = 8.0;
  opts.seed = 31;
  opts.num_chunks = 64;
  auto network = MakeStreamingGeometric(opts).MoveValueUnsafe();
  constexpr double kTargetDistanceM = 70000.0;
  constexpr size_t kTargetsPerSweep = 8;
  const size_t num_sources = quick ? 6 : 8;
  const int rounds = quick ? 5 : 7;

  LegacyLayout legacy = MakeLegacy(*network);
  LegacySweeper legacy_sweep(legacy);
  DijkstraSearch inlined_sweep(*network);

  // Each source lies at least kTargetDistanceM inside the bounds; its
  // targets are the nodes nearest a ring of that radius, at evenly spaced
  // bearings with a random phase.
  Rng rng(77);
  const BoundingBox inner = network->Bounds().Expanded(-kTargetDistanceM);
  auto draw_queries = [&] {
    std::vector<SweepQuery> queries;
    for (size_t i = 0; i < num_sources; ++i) {
      const Point at{rng.NextDouble(inner.min.x, inner.max.x),
                     rng.NextDouble(inner.min.y, inner.max.y)};
      SweepQuery q{network->NearestNode(at), {}};
      const Point center = network->NodePosition(q.source);
      const double phase = rng.NextDouble();
      for (size_t k = 0; k < kTargetsPerSweep; ++k) {
        const double bearing = 2.0 * M_PI * (static_cast<double>(k) + phase) /
                               static_cast<double>(kTargetsPerSweep);
        q.targets.push_back(network->NearestNode(
            center + Point{kTargetDistanceM * std::cos(bearing),
                           kTargetDistanceM * std::sin(bearing)}));
      }
      queries.push_back(std::move(q));
    }
    return queries;
  };
  std::function<double(const Edge&)> legacy_cost = [](const Edge& e) {
    return e.length_m;
  };

  // Parity: both layouts must settle the same number of nodes and reach
  // every target at the same cost.
  bool ok = true;
  size_t settled_total = 0;
  for (const SweepQuery& q : draw_queries()) {
    inlined_sweep.OneToMany(q.source, q.targets, LengthCost);
    const size_t n_inlined = inlined_sweep.last_settled_count();
    const size_t n_legacy =
        legacy_sweep.OneToMany(q.source, q.targets, legacy_cost);
    settled_total += n_inlined;
    bool costs_match = true;
    for (NodeId t : q.targets) {
      costs_match = costs_match &&
                    inlined_sweep.CostTo(t) == legacy_sweep.CostTo(t) &&
                    inlined_sweep.CostTo(t) < kInfiniteCost;
    }
    if (n_inlined != n_legacy || !costs_match) {
      std::cerr << "FAIL: layout sweep mismatch from node " << q.source
                << " (settled " << n_inlined << " vs " << n_legacy
                << ", target costs " << (costs_match ? "equal" : "differ")
                << ")\n";
      ok = false;
    }
  }

  // Each round draws fresh queries (so no layout inherits a warm cache from
  // the previous round) and times both sides over the same queries in
  // alternating order; the per-round ratio is therefore noise-paired, and
  // the median ratio is the verdict.
  uint64_t legacy_best_ns = UINT64_MAX;
  uint64_t inlined_best_ns = UINT64_MAX;
  std::vector<double> ratios;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<SweepQuery> queries = draw_queries();
    uint64_t side_ns[2] = {0, 0};  // [0] legacy, [1] inlined
    for (int slot = 0; slot < 2; ++slot) {
      const int side = (round + slot) % 2;
      const uint64_t start = NowNs();
      for (const SweepQuery& q : queries) {
        if (side == 1) {
          benchmark::DoNotOptimize(
              inlined_sweep.OneToMany(q.source, q.targets, LengthCost));
        } else {
          benchmark::DoNotOptimize(
              legacy_sweep.OneToMany(q.source, q.targets, legacy_cost));
        }
      }
      side_ns[side] = NowNs() - start;
    }
    legacy_best_ns = std::min(legacy_best_ns, side_ns[0]);
    inlined_best_ns = std::min(inlined_best_ns, side_ns[1]);
    ratios.push_back(static_cast<double>(side_ns[0]) /
                     static_cast<double>(std::max<uint64_t>(side_ns[1], 1)));
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[ratios.size() / 2];

  std::cout << "sweep layout gate: " << network->NumNodes() << " nodes, "
            << network->NumEdges() << " edges, " << kTargetsPerSweep
            << " targets " << kTargetDistanceM / 1000.0 << " km out, ~"
            << settled_total / num_sources
            << " settled/sweep: legacy " << legacy_best_ns / 1e6
            << " ms, inlined " << inlined_best_ns / 1e6
            << " ms/round, median speedup " << speedup << "x\n";
  json.BeginRecord();
  json.Str("mode", "sweep_layout");
  json.Num("nodes", static_cast<double>(network->NumNodes()));
  json.Num("edges", static_cast<double>(network->NumEdges()));
  json.Num("targets_per_sweep", static_cast<double>(kTargetsPerSweep));
  json.Num("target_distance_m", kTargetDistanceM);
  json.Num("settled_per_sweep",
           static_cast<double>(settled_total / num_sources));
  json.Num("legacy_ns", static_cast<double>(legacy_best_ns));
  json.Num("inlined_ns", static_cast<double>(inlined_best_ns));
  json.Num("speedup", speedup);
  if (speedup < kMinSweepSpeedup) {
    std::cerr << "FAIL: inlined CSR only " << speedup
              << "x faster than the legacy layout (floor " << kMinSweepSpeedup
              << "x)\n";
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Gate 2: snapshot load vs regeneration at >= 1M nodes.
// ---------------------------------------------------------------------------

bool SnapshotLoadGate(bench::BenchJsonWriter& json, bool quick) {
  StreamingGridOptions opts;
  opts.nx = quick ? 500 : 1024;
  opts.ny = quick ? 500 : 1024;
  opts.seed = 13;
  opts.num_chunks = 64;

  uint64_t regen_ns = UINT64_MAX;
  std::shared_ptr<RoadNetwork> generated;
  const int regen_rounds = quick ? 1 : 2;
  for (int round = 0; round < regen_rounds; ++round) {
    const uint64_t start = NowNs();
    generated = MakeStreamingGrid(opts).MoveValueUnsafe();
    regen_ns = std::min(regen_ns, NowNs() - start);
  }

  const std::string path = "/tmp/bench_micro_graph_gate." +
                           std::to_string(::getpid()) + ".ecgs";
  const uint64_t save_start = NowNs();
  Status st = SaveSnapshot(*generated, path);
  const uint64_t save_ns = NowNs() - save_start;
  if (!st.ok()) {
    std::cerr << "FAIL: " << st << "\n";
    return false;
  }

  bool ok = true;
  uint64_t load_ns = UINT64_MAX;
  std::shared_ptr<RoadNetwork> loaded;
  for (int round = 0; round < 5; ++round) {
    loaded.reset();  // unmap before timing the next load
    const uint64_t start = NowNs();
    auto result = LoadSnapshot(path);
    if (!result.ok()) {
      std::cerr << "FAIL: " << result.status() << "\n";
      std::remove(path.c_str());
      return false;
    }
    loaded = result.MoveValueUnsafe();
    load_ns = std::min(load_ns, NowNs() - start);
  }

  // Sanity: the mapped graph answers queries identically.
  DijkstraSearch a(*generated), b(*loaded);
  const NodeId far_node[] = {static_cast<NodeId>(generated->NumNodes() - 1)};
  a.OneToMany(0, far_node, LengthCost);
  b.OneToMany(0, far_node, LengthCost);
  if (a.CostTo(far_node[0]) != b.CostTo(far_node[0])) {
    std::cerr << "FAIL: snapshot-loaded graph disagrees with generator\n";
    ok = false;
  }

  const double speedup = static_cast<double>(regen_ns) /
                         static_cast<double>(std::max<uint64_t>(load_ns, 1));
  std::cout << "snapshot load gate: " << generated->NumNodes()
            << " nodes: regenerate " << regen_ns / 1e6 << " ms, save "
            << save_ns / 1e6 << " ms, mmap load " << load_ns / 1e6 << " ms ("
            << speedup << "x)\n";
  json.BeginRecord();
  json.Str("mode", "snapshot_load");
  json.Num("nodes", static_cast<double>(generated->NumNodes()));
  json.Num("edges", static_cast<double>(generated->NumEdges()));
  json.Num("regen_ns", static_cast<double>(regen_ns));
  json.Num("save_ns", static_cast<double>(save_ns));
  json.Num("load_ns", static_cast<double>(load_ns));
  json.Num("speedup", speedup);
  if (speedup < kMinSnapshotSpeedup) {
    std::cerr << "FAIL: snapshot load only " << speedup
              << "x faster than regeneration (floor " << kMinSnapshotSpeedup
              << "x)\n";
    ok = false;
  }
  std::remove(path.c_str());
  return ok;
}

int Main(int argc, char** argv) {
  // Peel off our flags; everything else goes to google-benchmark.
  bool quick = false;
  std::vector<char*> gb_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      gb_args.push_back(argv[i]);
    }
  }
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) {
    return 1;
  }
  bench::JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  bool ok = SweepLayoutGate(reporter.mutable_writer(), quick);
  ok = SnapshotLoadGate(reporter.mutable_writer(), quick) && ok;

  if (!reporter.writer().WriteFile("BENCH_graph.json")) {
    std::cerr << "failed to write BENCH_graph.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_graph.json (" << reporter.writer().num_records()
            << " records)\n";
  if (!ok) return 1;
  std::cout << "PASS: inlined CSR >= " << kMinSweepSpeedup
            << "x legacy sweep throughput, snapshot load >= "
            << kMinSnapshotSpeedup << "x faster than regeneration\n";
  return 0;
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
