// Contraction-hierarchy derouting gate: preprocessing, snapshot round-trip,
// and the speedup the hierarchy buys over the PR 5 Dijkstra batch on a
// large generated graph.
//
// The binary asserts the tentpole's contract and exits 1 when it breaks:
//   1. the CH snapshot section mmap-loads without re-contraction (load is
//      orders of magnitude cheaper than the build) and the loaded hierarchy
//      answers bit-identically to the freshly built one;
//   2. CH batch derouting estimates are bit-identical to ExactBatch on the
//      Dijkstra backend, across traffic buckets;
//   3. on the full graph (>= 1M nodes) the CH backend is >= 10x faster than
//      ExactBatch (>= 2x on the --quick 200k-node smoke graph — the sweeps'
//      advantage shrinks when the whole graph fits in cache);
//   4. end-to-end Offering Tables from a --derouting=ch environment are
//      bit-identical to the exact-backend environment's.
// Timing uses interleaved min-of-rounds (see bench_micro_obs.cc for why).
// Results are emitted as BENCH_ch.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "ch/ch_query.h"
#include "ch/contraction.h"
#include "common/rng.h"
#include "core/ecocharge.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "spatial/index_factory.h"
#include "traffic/derouting.h"

namespace ecocharge {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool SameBits(const DeroutingEstimate& a, const DeroutingEstimate& b) {
  return std::memcmp(&a.extra_distance_min_m, &b.extra_distance_min_m,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.extra_distance_max_m, &b.extra_distance_max_m,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.eta_s, &b.eta_s, sizeof(double)) == 0;
}

/// Bit-exact Offering Table equality (the tests/test_util.h contract,
/// restated without gtest).
bool TablesSameBits(const OfferingTable& a, const OfferingTable& b) {
  if (a.generated_at != b.generated_at || a.segment_index != b.segment_index ||
      a.location.x != b.location.x || a.location.y != b.location.y ||
      a.adapted_from_cache != b.adapted_from_cache ||
      a.degraded != b.degraded || a.entries.size() != b.entries.size()) {
    return false;
  }
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const OfferingEntry& x = a.entries[i];
    const OfferingEntry& y = b.entries[i];
    if (x.charger_id != y.charger_id || x.score.sc_min != y.score.sc_min ||
        x.score.sc_max != y.score.sc_max || !(x.ecs.level == y.ecs.level) ||
        !(x.ecs.availability == y.ecs.availability) ||
        !(x.ecs.derouting == y.ecs.derouting) || x.ecs.eta_s != y.ecs.eta_s ||
        x.ecs.degraded != y.ecs.degraded || x.eta_s != y.eta_s) {
      return false;
    }
  }
  return true;
}

/// One synthetic refinement workload: a vehicle, a return pair, and `n`
/// candidate charger sites drawn uniformly over the WHOLE corridor. This is
/// the long-haul regime the hierarchy exists for — candidates anywhere
/// within the service's max derouting distance force the exact backend's
/// one-to-many sweeps to settle essentially the entire graph, while CH
/// query cost is bounded by the corridor's (fixed-size) separators.
struct BigQuery {
  DeroutingQuery query;
  std::vector<EvCharger> chargers;
  std::vector<ChargerRef> refs;
};

BigQuery MakeBigQuery(const RoadNetwork& net, Rng* rng, size_t n,
                      SimTime now) {
  BigQuery bq;
  const auto random_node = [&] {
    return static_cast<NodeId>(
        rng->NextBounded(static_cast<uint64_t>(net.NumNodes())));
  };
  const NodeId m = random_node();
  bq.query.vehicle_node = m;
  bq.query.vehicle_position = net.NodePosition(m);
  bq.query.return_node_a = random_node();
  bq.query.return_point_a = net.NodePosition(bq.query.return_node_a);
  bq.query.return_node_b = random_node();
  bq.query.return_point_b = net.NodePosition(bq.query.return_node_b);
  bq.query.now = now;
  bq.chargers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EvCharger c;
    c.node = random_node();
    c.position = net.NodePosition(c.node);
    bq.chargers.push_back(c);
  }
  for (const EvCharger& c : bq.chargers) bq.refs.push_back(&c);
  return bq;
}

int Main(int argc, char** argv) {
  bool quick = false;
  uint64_t nodes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (nodes == 0) nodes = quick ? 200000 : 1100000;
  // Exact sweep cost scales with the node count while CH query cost is
  // pinned by the corridor's separator width, so the quick (~1/5-size)
  // graph cannot show the full-size speedup; its floor is a smoke check.
  const double min_speedup = quick ? 1.5 : 10.0;

  bench::BenchJsonWriter json;
  bool ok = true;

  // -------------------------------------------------------------------
  // Build the graph and contract it.
  // -------------------------------------------------------------------
  // A long, thin highway corridor at constant density: nested dissection
  // keeps cutting across the 30 km short axis, so separator sizes — and with
  // them CH query cost — stay flat as the corridor (and the graph) grows.
  StreamingGeometricOptions go;
  go.num_nodes = nodes;
  go.width_m = static_cast<double>(nodes) * (2400000.0 / 1100000.0);
  go.height_m = 30000.0;
  go.target_degree = 4.0;
  go.seed = 9;
  go.num_chunks = 64;
  uint64_t t0 = NowNs();
  auto net_result = MakeStreamingGeometric(go);
  if (!net_result.ok()) {
    std::cerr << "generator: " << net_result.status() << "\n";
    return 1;
  }
  std::shared_ptr<RoadNetwork> network = net_result.MoveValueUnsafe();
  const double gen_s = (NowNs() - t0) / 1e9;
  std::cout << "graph: " << network->NumNodes() << " nodes, "
            << network->NumEdges() << " edges ("
            << TableWriter::Fmt(gen_s, 1) << " s)\n";

  ChBuildStats stats;
  t0 = NowNs();
  auto ch_result = BuildChIndex(*network, &stats);
  if (!ch_result.ok()) {
    std::cerr << "contraction: " << ch_result.status() << "\n";
    return 1;
  }
  std::shared_ptr<ChIndex> built = ch_result.MoveValueUnsafe();
  const double build_s = (NowNs() - t0) / 1e9;
  std::cout << "contraction: " << stats.shortcuts << " shortcuts, "
            << stats.ordering_pops << " queue pops, max live degree "
            << stats.max_live_degree << " (" << TableWriter::Fmt(build_s, 1)
            << " s)\n";

  // -------------------------------------------------------------------
  // Snapshot round trip: the CH section must mmap back without
  // re-contraction — the load is validation-only, orders of magnitude
  // cheaper than the build.
  // -------------------------------------------------------------------
  const std::string snap_path = "bench_ch_snapshot.ecgs";
  const ChSnapshotViews views = ToSnapshotViews(built);
  t0 = NowNs();
  if (Status s = SaveSnapshot(*network, snap_path, nullptr, &views); !s.ok()) {
    std::cerr << "snapshot save: " << s << "\n";
    return 1;
  }
  const double save_s = (NowNs() - t0) / 1e9;
  t0 = NowNs();
  auto loaded_result = LoadSnapshotWithAux(snap_path);
  if (!loaded_result.ok() || !loaded_result->ch.has_value()) {
    std::cerr << "snapshot load: CH section missing or unreadable\n";
    return 1;
  }
  LoadedSnapshot snap = loaded_result.MoveValueUnsafe();
  auto reload_result = ChIndexFromSnapshot(*snap.ch, snap.network->NumEdges());
  if (!reload_result.ok()) {
    std::cerr << "snapshot rehydrate: " << reload_result.status() << "\n";
    return 1;
  }
  std::shared_ptr<ChIndex> loaded = reload_result.MoveValueUnsafe();
  const double load_s = (NowNs() - t0) / 1e9;
  std::cout << "snapshot: save " << TableWriter::Fmt(save_s, 2) << " s, "
            << "mmap load+validate " << TableWriter::Fmt(load_s, 2)
            << " s\n";
  if (load_s > build_s / 10.0) {
    std::cerr << "FAIL: snapshot load took " << load_s
              << " s — that smells like a re-contraction (build was "
              << build_s << " s)\n";
    ok = false;
  }

  // Loaded-vs-built parity: a handful of point-to-point queries must agree
  // bit for bit (both run over identical record arrays).
  {
    ChCustomizationCache fresh_cache(*built), reloaded_cache(*loaded);
    ChQuery fresh(fresh_cache), reloaded(reloaded_cache);
    CongestionModel congestion(7);
    ChClassWeights w;
    for (int c = 0; c < kChNumClasses; ++c) {
      w.w[c] = 1.0 / congestion.ActualSpeedFactor(static_cast<RoadClass>(c),
                                                  8.5 * 3600);
    }
    Rng rng(17);
    for (int i = 0; i < 24; ++i) {
      const NodeId s = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
      const NodeId t = static_cast<NodeId>(rng.NextBounded(network->NumNodes()));
      const double da = fresh.Search(s, t, w);
      const double db = reloaded.Search(s, t, w);
      if (std::memcmp(&da, &db, sizeof(double)) != 0) {
        std::cerr << "FAIL: loaded hierarchy disagrees at " << s << " -> "
                  << t << "\n";
        ok = false;
      }
    }
  }

  // -------------------------------------------------------------------
  // Derouting backend parity + speedup. Both services bucket exact costs
  // to the congestion noise bucket (the serving configuration), so the
  // Dijkstra side gets its warm-start memo and the CH side amortizes
  // customization the same way — an honest comparison of warmed paths.
  // -------------------------------------------------------------------
  CongestionModel congestion(7);
  DeroutingService exact(snap.network, &congestion, 1.3,
                         CongestionModel::kNoiseBucketSeconds);
  DeroutingService hierarchy(snap.network, &congestion, 1.3,
                             CongestionModel::kNoiseBucketSeconds);
  // Serve planes through a customization cache so the timed query loop
  // below measures steady-state query cost: every bucket the workload
  // touches is priced once during the parity pass and hits thereafter.
  // Customization cost is timed on its own further down.
  ChCustomizationCache plane_cache(*loaded);
  hierarchy.set_ch(&plane_cache);

  Rng rng(23);
  // The pipeline refines EcoChargeOptions::refine_limit (8) candidates per
  // query — that is the batch size the backend actually serves.
  const size_t kTargets = 8;
  const size_t kStates = 4;
  std::vector<BigQuery> workload;
  for (size_t s = 0; s < kStates; ++s) {
    workload.push_back(MakeBigQuery(*snap.network, &rng, kTargets,
                                    /*now=*/8.0 * 3600 + s * 300.0));
  }

  DeroutingBatchScratch exact_scratch, ch_scratch;
  std::vector<DeroutingEstimate> exact_out, ch_out;
  size_t compared = 0;
  for (SimTime tau_shift : {0.0, 2.0 * 3600}) {  // two traffic buckets
    for (BigQuery& bq : workload) {
      DeroutingQuery q = bq.query;
      q.now += tau_shift;
      exact.ExactBatch(q, bq.refs, &exact_scratch, &exact_out);
      hierarchy.ExactBatch(q, bq.refs, &ch_scratch, &ch_out);
      for (size_t i = 0; i < bq.refs.size(); ++i) {
        if (!SameBits(exact_out[i], ch_out[i])) {
          std::cerr << "FAIL: estimate mismatch, charger " << i << " shift "
                    << tau_shift << "\n";
          ok = false;
        }
        ++compared;
      }
    }
  }
  std::cout << "parity: " << compared
            << " estimates compared across 2 traffic buckets\n";

  // Interleaved min-of-rounds over the full warmed workload.
  const int kRounds = 3;
  uint64_t exact_ns = UINT64_MAX, ch_ns = UINT64_MAX;
  for (int round = 0; round < kRounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      const bool run_ch = (round + side) % 2 == 1;
      const uint64_t start = NowNs();
      for (BigQuery& bq : workload) {
        if (run_ch) {
          hierarchy.ExactBatch(bq.query, bq.refs, &ch_scratch, &ch_out);
        } else {
          exact.ExactBatch(bq.query, bq.refs, &exact_scratch, &exact_out);
        }
      }
      const uint64_t elapsed = NowNs() - start;
      uint64_t& best = run_ch ? ch_ns : exact_ns;
      best = std::min(best, elapsed);
    }
  }
  const double speedup = static_cast<double>(exact_ns) /
                         static_cast<double>(std::max<uint64_t>(ch_ns, 1));
  std::cout << "derouting batch (" << kStates << " states x " << kTargets
            << " targets): dijkstra "
            << TableWriter::Fmt(exact_ns / 1e6, 1) << " ms, ch "
            << TableWriter::Fmt(ch_ns / 1e6, 1) << " ms ("
            << TableWriter::Fmt(speedup, 2) << "x)\n";

  // -------------------------------------------------------------------
  // Customization cost, timed on its own: the cache above kept sweeps out
  // of the query loop, so BENCH_ch.json reports per-bucket plane pricing
  // (customize_ns) separately from steady-state query cost (ch_batch_ns).
  // -------------------------------------------------------------------
  uint64_t customize_ns = UINT64_MAX;
  {
    // A private cache and one hour's weights per round: each round that
    // misses times one full sweep.
    ChCustomizationCache sweeps(*loaded);
    for (int round = 0; round < kRounds; ++round) {
      ChClassWeights w;
      for (int c = 0; c < kChNumClasses; ++c) {
        w.w[c] = 1.0 / congestion.ActualSpeedFactor(
                           static_cast<RoadClass>(c), (8.5 + round) * 3600);
      }
      bool built = false;
      const uint64_t start = NowNs();
      sweeps.Get(w, &built);
      if (built) customize_ns = std::min(customize_ns, NowNs() - start);
    }
  }
  std::cout << "customization: " << TableWriter::Fmt(customize_ns / 1e6, 1)
            << " ms per full sweep (serial; plane cache served "
            << plane_cache.hits() << " hits / " << plane_cache.misses()
            << " misses during the query phases)\n";
  if (speedup < min_speedup) {
    std::cerr << "FAIL: CH backend only " << speedup << "x over ExactBatch ("
              << "floor " << min_speedup << "x at " << network->NumNodes()
              << " nodes)\n";
    ok = false;
  }

  json.BeginRecord();
  json.Str("mode", "ch_gate");
  json.Num("nodes", static_cast<double>(network->NumNodes()));
  json.Num("edges", static_cast<double>(network->NumEdges()));
  json.Num("shortcuts", static_cast<double>(stats.shortcuts));
  json.Num("max_live_degree", static_cast<double>(stats.max_live_degree));
  json.Num("contraction_s", build_s);
  json.Num("snapshot_save_s", save_s);
  json.Num("snapshot_load_s", load_s);
  json.Num("targets", static_cast<double>(kTargets));
  json.Num("states", static_cast<double>(kStates));
  json.Num("estimates_compared", static_cast<double>(compared));
  json.Num("exact_batch_ns", static_cast<double>(exact_ns));
  json.Num("ch_batch_ns", static_cast<double>(ch_ns));
  json.Num("customize_ns", static_cast<double>(customize_ns));
  json.Num("plane_cache_hits", static_cast<double>(plane_cache.hits()));
  json.Num("plane_cache_misses", static_cast<double>(plane_cache.misses()));
  json.Num("speedup", speedup);
  json.Num("speedup_floor", min_speedup);

  // -------------------------------------------------------------------
  // End-to-end Offering Table parity: two deterministic environments over
  // the same snapshot, differing only in derouting_backend.
  // -------------------------------------------------------------------
  {
    bench::BenchConfig cfg;
    cfg.num_chargers = 400;
    cfg.max_trips = 4;
    cfg.max_states = 8;
    cfg.graph_snapshot = snap_path;
    bench::PreparedWorld exact_world =
        bench::Prepare(DatasetKind::kOldenburg, cfg);
    EnvironmentOptions co;
    co.kind = DatasetKind::kOldenburg;
    co.dataset_scale = cfg.dataset_scale;
    co.num_chargers = cfg.num_chargers;
    co.max_derouting_m = 150000.0;
    co.seed = cfg.seed;
    co.index_kind = cfg.index_kind;
    co.graph_snapshot = snap_path;
    co.derouting_backend = DeroutingBackend::kCh;
    auto ch_env_result = MakeEnvironment(co);
    if (!ch_env_result.ok()) {
      std::cerr << "ch environment: " << ch_env_result.status() << "\n";
      return 1;
    }
    std::unique_ptr<Environment> ch_env = ch_env_result.MoveValueUnsafe();

    std::vector<Point> points;
    for (const EvCharger& c : exact_world.env->chargers) {
      points.push_back(c.position);
    }
    std::unique_ptr<SpatialIndex> exact_index =
        MakeSpatialIndex(cfg.index_kind);
    exact_index->Build(std::vector<Point>(points));
    std::unique_ptr<SpatialIndex> ch_index = MakeSpatialIndex(cfg.index_kind);
    ch_index->Build(std::move(points));

    EcoChargeOptions ro;
    ro.radius_m = 50000.0;
    EcoChargeRanker exact_ranker(exact_world.env->estimator.get(),
                                 exact_index.get(), ScoreWeights::AWE(), ro);
    EcoChargeRanker ch_ranker(ch_env->estimator.get(), ch_index.get(),
                              ScoreWeights::AWE(), ro);
    size_t tables = 0, mismatches = 0;
    for (const VehicleState& state : exact_world.states) {
      if (!TablesSameBits(ch_ranker.Rank(state, 3),
                          exact_ranker.Rank(state, 3))) {
        ++mismatches;
      }
      ++tables;
    }
    std::cout << "offering tables: " << tables << " compared, " << mismatches
              << " mismatches\n";
    if (tables == 0 || mismatches != 0) {
      std::cerr << "FAIL: --derouting=ch Offering Tables are not "
                   "bit-identical to the exact backend\n";
      ok = false;
    }
    json.Num("tables_compared", static_cast<double>(tables));
    json.Num("table_mismatches", static_cast<double>(mismatches));
  }

  std::remove(snap_path.c_str());
  if (!json.WriteFile("BENCH_ch.json")) {
    std::cerr << "failed to write BENCH_ch.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_ch.json (" << json.num_records()
            << " records)\n";
  if (!ok) return 1;
  std::cout << "PASS: CH backend bit-identical and >= " << min_speedup
            << "x over ExactBatch at " << network->NumNodes() << " nodes\n";
  return 0;
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
