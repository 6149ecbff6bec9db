// Serving-runtime bench: OfferingServer throughput and latency under a
// sweep of worker threads x queue depth.
//
// Each request carries a per-request simulated I/O stall (default 4 ms)
// emulating the upstream-fetch / response-write blocking of the real
// Mode-2 deployment (HTTP through Nginx to weather/traffic providers) —
// that is the component worker threads overlap. On a single-core
// container the pure-compute rows (stall = 0) cannot exceed 1x scaling;
// the stall rows show the I/O-bound scaling the runtime is built for.
// Override with --io-ms (0 disables the stall everywhere).
//
// A second phase replays the fleet trace on one server: 48 walking
// vehicles, a world-epoch refresh every 64 requests, corridor cache on and
// off, 2/4/8/16 workers, 0 and 4 ms stall. It asserts three gates (exit 1
// on violation):
//   1. Bit-parity: every request's table digest equals the inline
//      server's, at every worker count, with and without the corridor
//      cache, refreshes included (600 requests; 4000 in full mode).
//   2. Corridor sharing: the corridor hit rate at 4 workers is > 0.20.
//   3. I/O-bound scaling: with the 4 ms stall and the corridor cache off,
//      QPS at 8 workers is >= 1.5x QPS at 2 workers.
// It ends with a bulk corridor row — 16 workers, a refresh every 8192
// requests, no stall, 20,000 requests (1M in full mode) — that must serve
// every request with a corridor hit rate > 0.5.
//
// Writes BENCH_server.json (flat records, one per configuration) next to
// the working directory for machine consumption.

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_writer.h"
#include "core/protocol.h"
#include "obs/metrics.h"
#include "server/corridor_cache.h"
#include "server/offering_server.h"
#include "server/world_epochs.h"

using namespace ecocharge;
using bench::BenchConfig;

namespace {

struct SweepPoint {
  int threads = 0;
  size_t queue_depth = 0;  // 0 = large enough that nothing is shed
  double io_ms = -1.0;     // <0 = use the bench-wide default
  bool corridor = false;   // serve through a shared corridor cache
  uint64_t refresh_every = 0;  // publish a world refresh every N requests
};

struct SweepResult {
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  OfferingServerStats stats;
  double corridor_hit_rate = 0.0;
  uint64_t epoch = 0;
};

/// Serves `num_requests` from `num_clients` walking vehicles: client c's
/// s-th request uses workload state (c + s), so consecutive requests move
/// the vehicle and Dynamic Caching sees its realistic fresh/adapted mix.
/// Every `refresh_every` requests a refresh of the next upstream
/// (weather, availability, traffic in turn) is published while earlier
/// requests may still be queued. When `digests` is non-null it receives
/// one table digest per request, each slot written once by whichever
/// worker serves it, so threaded runs compare with the inline run slot by
/// slot.
SweepResult RunPoint(bench::PreparedWorld& world, const SweepPoint& point,
                     size_t num_requests, size_t num_clients,
                     double default_io_ms,
                     std::vector<uint64_t>* digests = nullptr) {
  // Only the fleet-trace rows serve under world epochs; the sweep rows
  // keep the stand-alone server.
  std::optional<WorldEpochs> epochs;
  if (point.refresh_every > 0 || point.corridor) {
    epochs.emplace(static_cast<size_t>(std::max(1, point.threads)));
  }
  std::optional<CorridorCache> cache;
  if (point.corridor) {
    cache.emplace(world.env->dataset.network.get(), CorridorCacheOptions{});
  }
  OfferingServerOptions opts;
  opts.threads = point.threads;
  opts.queue_depth =
      point.queue_depth == 0 ? num_requests : point.queue_depth;
  opts.simulated_io_ms = point.io_ms < 0.0 ? default_io_ms : point.io_ms;
  opts.epochs = epochs ? &*epochs : nullptr;
  opts.corridor = cache ? &*cache : nullptr;
  OfferingServer server(world.env.get(), ScoreWeights::AWE(),
                        EcoChargeOptions{}, opts);
  if (digests) digests->assign(num_requests, 0);

  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < num_requests; ++i) {
    size_t state_index =
        (i % num_clients + i / num_clients) % world.states.size();
    if (point.refresh_every > 0 && i > 0 && i % point.refresh_every == 0) {
      const uint64_t kind = (i / point.refresh_every) % 3;
      epochs->Publish(world.states[state_index].time,
                      [kind](WorldSnapshot* snapshot) {
                        WorldRevisions& r = snapshot->revisions;
                        uint64_t* revision[] = {&r.weather, &r.availability,
                                                &r.traffic};
                        ++*revision[kind];
                      });
    }
    std::function<void(const OfferingTable&)> on_table =
        [](const OfferingTable&) {};
    if (digests) {
      uint64_t* slot = &(*digests)[i];
      on_table = [slot](const OfferingTable& table) {
        *slot = std::hash<std::string>{}(EncodeOfferingTable(table));
      };
    }
    Status st = server.Submit(i % num_clients, world.states[state_index], 3,
                              std::move(on_table));
    // Shed requests (kUnavailable) are part of the admission-control
    // sweep; anything else is a bench bug.
    if (!st.ok() && st.code() != StatusCode::kUnavailable) {
      std::cerr << "submit: " << st << "\n";
      std::exit(1);
    }
  }
  server.Drain();
  SweepResult result;
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.stats = server.Stats();
  result.qps = result.elapsed_s > 0.0
                   ? static_cast<double>(result.stats.served) /
                         result.elapsed_s
                   : 0.0;

  // Latency percentiles come from the server's own instrumentation — the
  // same `server.request_latency_ns` histogram statsz exports (submission
  // to completion, including queue wait).
  const obs::Histogram* latency =
      server.metrics().FindHistogram("server.request_latency_ns");
  ECOCHARGE_CHECK(latency != nullptr);
  obs::HistogramSnapshot snap = latency->Snapshot();
  result.p50_ms = static_cast<double>(snap.ValueAtQuantile(0.50)) / 1e6;
  result.p95_ms = static_cast<double>(snap.ValueAtQuantile(0.95)) / 1e6;
  result.p99_ms = static_cast<double>(snap.ValueAtQuantile(0.99)) / 1e6;
  if (cache) {
    CacheStats cs = cache->stats();
    uint64_t lookups = cs.hits + cs.misses;
    result.corridor_hit_rate =
        lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
  }
  result.epoch = epochs ? epochs->current_epoch() : 0;
  return result;
}

/// The fleet-trace phase: its three gates and the bulk corridor row (see
/// the file comment).
void RunFleetPhase(bench::PreparedWorld& world, bool quick,
                   bench::BenchJsonWriter* json) {
  constexpr size_t kClients = 48;
  constexpr uint64_t kRefreshEvery = 64;
  constexpr double kStallMs = 4.0;
  const std::vector<int> worker_counts = {2, 4, 8, 16};
  const size_t parity_requests = quick ? 600 : 4000;
  const size_t sweep_requests = quick ? 160 : 480;
  const size_t bulk_requests = quick ? 20000 : 1000000;

  std::cout << "\n=== Fleet trace on one server: " << kClients
            << " clients, a refresh every " << kRefreshEvery << " ===\n"
            << "parity over " << parity_requests << " requests\n";
  auto point = [&](int workers, double io_ms, bool corridor) {
    return SweepPoint{workers, 0, io_ms, corridor, kRefreshEvery};
  };
  bool parity_ok = true;
  for (bool corridor : {false, true}) {
    std::vector<uint64_t> reference;
    RunPoint(world, point(0, 0.0, corridor), parity_requests, kClients, 0.0,
             &reference);
    for (int workers : worker_counts) {
      std::vector<uint64_t> digests;
      RunPoint(world, point(workers, 0.0, corridor), parity_requests,
               kClients, 0.0, &digests);
      const bool same = digests == reference;
      parity_ok = parity_ok && same;
      std::cout << "  parity " << (corridor ? "corridor " : "per-client")
                << " workers=" << workers << ": "
                << (same ? "bit-identical" : "MISMATCH") << "\n";
    }
  }
  ECOCHARGE_CHECK(parity_ok);

  std::cout << "\nsweep over " << sweep_requests << " requests\n";
  TableWriter table({"Workers", "Corridor", "I/O [ms]", "QPS", "p50 [ms]",
                     "p95 [ms]", "p99 [ms]", "Hit rate", "Epoch"});
  double qps_2w = 0.0;
  double qps_8w = 0.0;
  double corridor_hit_rate = 0.0;
  for (double io_ms : {0.0, kStallMs}) {
    for (int workers : worker_counts) {
      for (bool corridor : {false, true}) {
        const SweepResult r = RunPoint(world, point(workers, io_ms, corridor),
                                       sweep_requests, kClients, io_ms);
        if (io_ms > 0.0 && !corridor && workers == 2) qps_2w = r.qps;
        if (io_ms > 0.0 && !corridor && workers == 8) qps_8w = r.qps;
        if (io_ms > 0.0 && corridor && workers == 4) {
          corridor_hit_rate = r.corridor_hit_rate;
        }
        ECOCHARGE_CHECK(
            table
                .AddRow({std::to_string(workers), corridor ? "yes" : "no",
                         TableWriter::Fmt(io_ms, 1),
                         TableWriter::Fmt(r.qps, 1),
                         TableWriter::Fmt(r.p50_ms, 2),
                         TableWriter::Fmt(r.p95_ms, 2),
                         TableWriter::Fmt(r.p99_ms, 2),
                         TableWriter::Fmt(r.corridor_hit_rate, 2),
                         std::to_string(r.epoch)})
                .ok());
        json->BeginRecord();
        json->Str("bench", "server_throughput");
        json->Str("phase", "fleet_trace");
        json->Str("dataset", "Oldenburg");
        json->Num("threads", workers);
        json->Num("corridor", corridor ? 1 : 0);
        json->Num("simulated_io_ms", io_ms);
        json->Num("requests", static_cast<double>(sweep_requests));
        json->Num("clients", static_cast<double>(kClients));
        json->Num("elapsed_s", r.elapsed_s);
        json->Num("qps", r.qps);
        json->Num("p50_ms", r.p50_ms);
        json->Num("p95_ms", r.p95_ms);
        json->Num("p99_ms", r.p99_ms);
        json->Num("served", static_cast<double>(r.stats.served));
        json->Num("corridor_hit_rate", r.corridor_hit_rate);
        json->Num("epoch", static_cast<double>(r.epoch));
      }
    }
  }
  table.RenderText(std::cout);
  const double scaling = qps_2w > 0.0 ? qps_8w / qps_2w : 0.0;
  std::cout << "\nI/O-inclusive scaling, 8 workers vs 2: "
            << TableWriter::Fmt(scaling, 2) << "x (floor 1.5x)\n"
            << "corridor hit rate at 4 workers: "
            << TableWriter::Fmt(corridor_hit_rate, 2) << " (floor 0.20)\n";
  ECOCHARGE_CHECK(scaling >= 1.5);
  ECOCHARGE_CHECK(corridor_hit_rate > 0.20);

  std::cout << "\n=== Bulk corridor trace (" << bulk_requests
            << " requests, 16 workers, no stall) ===\n";
  const SweepResult bulk =
      RunPoint(world, SweepPoint{16, 0, 0.0, true, 8192}, bulk_requests,
               kClients, 0.0);
  std::cout << "  " << bulk.stats.served << " served in "
            << TableWriter::Fmt(bulk.elapsed_s, 2) << " s ("
            << TableWriter::Fmt(bulk.qps, 0) << " QPS), corridor hit rate "
            << TableWriter::Fmt(bulk.corridor_hit_rate, 3) << ", p99 "
            << TableWriter::Fmt(bulk.p99_ms, 3) << " ms, epoch "
            << bulk.epoch << "\n";
  ECOCHARGE_CHECK(bulk.stats.served == bulk_requests);
  ECOCHARGE_CHECK(bulk.corridor_hit_rate > 0.5);
  json->BeginRecord();
  json->Str("bench", "server_throughput");
  json->Str("phase", "bulk_corridor");
  json->Str("dataset", "Oldenburg");
  json->Num("threads", 16);
  json->Num("requests", static_cast<double>(bulk_requests));
  json->Num("elapsed_s", bulk.elapsed_s);
  json->Num("qps", bulk.qps);
  json->Num("p50_ms", bulk.p50_ms);
  json->Num("p99_ms", bulk.p99_ms);
  json->Num("corridor_hit_rate", bulk.corridor_hit_rate);
  json->Num("epoch", static_cast<double>(bulk.epoch));
}

}  // namespace

int main(int argc, char** argv) {
  Logger::set_threshold(LogLevel::kWarning);
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  double default_io_ms = 6.0;
  size_t num_requests = 480;
  size_t num_clients = 48;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--io-ms") == 0 && i + 1 < argc) {
      default_io_ms = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      num_requests = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      num_requests = 120;
      quick = true;
    }
  }

  std::cout << "=== Serving runtime: threads x queue depth ===\n"
            << num_requests << " requests from " << num_clients
            << " clients; per-request simulated I/O stall "
            << default_io_ms << " ms (rows marked io=0 are pure compute)\n\n";

  bench::PreparedWorld world = bench::Prepare(DatasetKind::kOldenburg, cfg);

  std::vector<SweepPoint> sweep = {
      // Thread scaling, nothing shed.
      {0, 0, -1.0},
      {1, 0, -1.0},
      {2, 0, -1.0},
      {4, 0, -1.0},
      // Queue-depth sweep: small queues shed load instead of buffering.
      {4, 8, -1.0},
      {4, 32, -1.0},
      // Pure-compute reference rows (single core: expect ~1x scaling).
      {0, 0, 0.0},
      {4, 0, 0.0},
  };

  TableWriter table({"Threads", "Queue", "I/O [ms]", "QPS", "p50 [ms]",
                     "p95 [ms]", "p99 [ms]", "Served", "Shed"});
  bench::BenchJsonWriter json;
  double qps_inline = 0.0;
  double qps_4t = 0.0;
  for (const SweepPoint& point : sweep) {
    SweepResult r =
        RunPoint(world, point, num_requests, num_clients, default_io_ms);
    double io_ms = point.io_ms < 0.0 ? default_io_ms : point.io_ms;
    size_t depth = point.queue_depth == 0 ? num_requests : point.queue_depth;
    if (io_ms > 0.0 && depth >= num_requests) {
      if (point.threads == 0) qps_inline = r.qps;
      if (point.threads == 4) qps_4t = r.qps;
    }
    ECOCHARGE_CHECK(
        table
            .AddRow({std::to_string(point.threads), std::to_string(depth),
                     TableWriter::Fmt(io_ms, 1), TableWriter::Fmt(r.qps, 1),
                     TableWriter::Fmt(r.p50_ms, 2),
                     TableWriter::Fmt(r.p95_ms, 2),
                     TableWriter::Fmt(r.p99_ms, 2),
                     std::to_string(r.stats.served),
                     std::to_string(r.stats.rejected)})
            .ok());
    json.BeginRecord();
    json.Str("bench", "server_throughput");
    json.Str("dataset", "Oldenburg");
    json.Num("threads", point.threads);
    json.Num("queue_depth", static_cast<double>(depth));
    json.Num("simulated_io_ms", io_ms);
    json.Num("requests", static_cast<double>(num_requests));
    json.Num("clients", static_cast<double>(num_clients));
    json.Num("elapsed_s", r.elapsed_s);
    json.Num("qps", r.qps);
    json.Num("p50_ms", r.p50_ms);
    json.Num("p95_ms", r.p95_ms);
    json.Num("p99_ms", r.p99_ms);
    json.Num("served", static_cast<double>(r.stats.served));
    json.Num("shed", static_cast<double>(r.stats.rejected));
    json.Num("cache_adaptations",
             static_cast<double>(r.stats.cache_adaptations));
  }
  table.RenderText(std::cout);
  if (qps_inline > 0.0) {
    std::cout << "\nI/O-inclusive speedup, 4 workers vs synchronous: "
              << TableWriter::Fmt(qps_4t / qps_inline, 2) << "x\n";
  }
  RunFleetPhase(world, quick, &json);
  if (!json.WriteFile("BENCH_server.json")) {
    std::cerr << "failed to write BENCH_server.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_server.json (" << json.num_records()
            << " records)\n";
  return 0;
}
