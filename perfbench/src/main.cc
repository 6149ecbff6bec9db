// EcoCharge serving benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Builds the workload's world and seeded request stream several times (the
// median is `setup_s`), then replays the stream through a fresh inline
// OfferingServer, replay after replay, until S seconds have been spent
// serving. Every table of every replay is validated and digested; every
// replay must reproduce the first one's digest. With --trace 1 half the
// time goes to untraced replays and half to the span-traced mirror of the
// server, and the per-layer metrics are reported instead. The last line of
// stdout is the JSON result; the lines before it start with '#'.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "reference.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ecocharge;

// Set-up is repeated and its median reported: one build takes 0.1-1 s and
// drifts with the host.
constexpr int kSetupRepeats = 5;

// Largest share of server.request_ms the traced run may leave outside the
// named layers' spans before the trace counts as broken.
constexpr double kUnattributedTolerancePct = 10.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), args->workload) != names.end();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; also reports how many samples lie above it.
double Percentile(const std::vector<double>& sorted, double q,
                  size_t* beyond) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  *beyond = n - rank;
  return sorted[rank - 1];
}

double Pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Mean Sustainability Score of the sampled tables, as a percentage of the
/// Brute-Force optimum on the same state (the paper's SC).
double SustainabilityPct(Workload* w, const ServedSample& sample) {
  EcEstimator* estimator = w->env->estimator.get();
  const ScoreWeights weights = ScoreWeights::AWE();
  const std::vector<EvCharger>& fleet = w->env->chargers;
  auto true_sum = [&](const VehicleState& s, const OfferingTable& t) {
    double sum = 0.0;
    for (const OfferingEntry& e : t.entries) {
      sum += estimator->ReferenceScore(s, fleet[e.charger_id], weights);
    }
    return sum;
  };
  BruteForceRanker oracle(estimator, weights);
  QueryContext ctx;
  OfferingTable best;
  double total = 0.0;
  for (size_t i = 0; i < sample.states.size(); ++i) {
    oracle.RankInto(sample.states[i], w->k, ctx, &best);
    const double optimum = true_sum(sample.states[i], best);
    const double served = true_sum(sample.states[i], sample.tables[i]);
    total += optimum > 0.0 ? std::min(100.0, 100.0 * served / optimum)
                           : 100.0;
  }
  return sample.states.empty()
             ? 0.0
             : total / static_cast<double>(sample.states.size());
}

void PrintPaths(const char* label, const PathCounts& p) {
  const double n = static_cast<double>(p.fresh + p.adapted + p.corridor_hits);
  std::printf(
      "# %s paths: fresh=%.1f%% adapted=%.1f%% corridor_hit=%.1f%% (of %.0f)\n",
      label, Pct(p.fresh, n), Pct(p.adapted, n), Pct(p.corridor_hits, n), n);
}

/// Collects "name": {"value", "unit"} pairs and prints the result line.
class ResultLine {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.first,
                  m.second.c_str());
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Rotates this process over the CPUs it may run on, one CPU per call.
///
/// On a shared host a co-tenant can keep one core busy for the whole of a
/// run, which slows everything that runs on that core by 10-25%. Moving
/// every replay (and every set-up repetition) to the next allowed CPU
/// means the medians below are taken across all cores, so no single busy
/// core decides them.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
      }
    }
  }

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Replays of the stream. Every replay starts from a fresh server and the
/// same state, so request i does identical work each time. Its times are
/// converted to nominal-host times with the replay's reference scale, and
/// its service time is the median over its replays.
struct Replays {
  explicit Replays(size_t requests) : n(requests) {}

  void Add(const PassResult& p, const std::vector<double>& pass_ms,
           uint64_t expected_digest) {
    ++passes;
    requests += p.requests;
    failed += p.ledger.failed();
    if (p.ledger.digest() != expected_digest) ++digest_mismatches;
    wall_s += p.wall_s;
    scales.push_back(p.scale);
    for (size_t i = 0; i < n; ++i) nominal_ms.push_back(pass_ms[i] * p.scale);
  }

  /// Per request, the median of its replays' nominal-host times.
  std::vector<double> ServiceMs() const {
    std::vector<double> out(n), replays(passes);
    for (size_t i = 0; i < n; ++i) {
      for (size_t r = 0; r < passes; ++r) replays[r] = nominal_ms[r * n + i];
      out[i] = Median(replays);
    }
    return out;
  }

  size_t n;
  std::vector<double> nominal_ms;  ///< replay-major
  std::vector<double> scales;
  uint64_t passes = 0;
  uint64_t requests = 0;  ///< served over all replays
  uint64_t failed = 0;
  uint64_t digest_mismatches = 0;
  double wall_s = 0.0;  ///< wall time of all replays, as measured
};

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

int Run(const Args& args) {
  // --- Set-up, repeated; the last build is the one served. ---
  std::vector<double> setup_s, graph_s, ch_s, spatial_s;
  Workload w;
  uint64_t stream_digest = 0;
  CpuRotation cpus;
  Reference reference;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cpus.Next();
    for (int j = 0; j < 20; ++j) reference.Run();
    w = Workload{};  // release the previous world before building the next
    Result<Workload> built = BuildWorkload(args.workload, args.seed,
                                           args.work_dir);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    w = std::move(built).value();
    const uint64_t digest = StreamDigest(w.stream);
    if (i > 0 && digest != stream_digest) {
      std::fprintf(stderr, "request stream differs between set-ups\n");
      return 1;
    }
    stream_digest = digest;
    for (int j = 0; j < 20; ++j) reference.Run();
    const double scale = reference.TakeScale();
    setup_s.push_back(w.setup.total_s * scale);
    graph_s.push_back(w.setup.graph_build_s * scale);
    ch_s.push_back(w.setup.ch_contract_s * scale);
    spatial_s.push_back(w.setup.spatial_build_s * scale);
  }
  if (w.stream.empty()) {
    std::fprintf(stderr, "empty request stream\n");
    return 1;
  }
  const size_t n = w.stream.size();
  std::printf("# workload=%s seed=%llu requests=%zu stream_digest=%016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), n,
              static_cast<unsigned long long>(stream_digest));
  std::printf("# setup_s (median of %d): graph=%.4f ch=%.4f spatial=%.6f "
              "stream=%.4f total=%.4f\n",
              kSetupRepeats, Median(graph_s), Median(ch_s),
              Median(spatial_s), w.setup.stream_s, Median(setup_s));

  // --- Untraced replays through the real server. The first also fixes the
  // table digest every later replay must reproduce and keeps the sample
  // scored for sc_pct. ---
  ServedSample sample;
  sample.every = std::max<size_t>(1, n / w.sc_samples);
  std::vector<double> pass_ms;
  Replays untraced(n);
  cpus.Next();
  const PassResult first = ServePass(&w, &reference, &pass_ms,
                                     args.trace == 0 ? &sample : nullptr);
  const uint64_t table_digest = first.ledger.digest();
  untraced.Add(first, pass_ms, table_digest);
  const double untraced_s =
      args.trace == 0 ? args.seconds : 0.5 * args.seconds;
  while (untraced.wall_s < untraced_s) {
    cpus.Next();
    untraced.Add(ServePass(&w, &reference, &pass_ms, nullptr), pass_ms,
                 table_digest);
  }
  PrintPaths("untraced", first.paths);
  std::printf("# untraced replays=%llu median_scale=%.4f "
              "measured_throughput_rps=%.2f\n",
              static_cast<unsigned long long>(untraced.passes),
              Median(untraced.scales), untraced.requests / untraced.wall_s);

  ResultLine result;
  uint64_t attempted = untraced.requests;
  uint64_t failed = untraced.failed;
  bool correct = untraced.failed == 0 && untraced.digest_mismatches == 0;

  if (args.trace == 0) {
    std::printf("# table_digest=%016llx\n",
                static_cast<unsigned long long>(table_digest));
    const std::vector<double> service = untraced.ServiceMs();
    std::vector<double> sorted = service;
    std::sort(sorted.begin(), sorted.end());
    size_t beyond50 = 0, beyond95 = 0, beyond99 = 0;
    const double p50 = Percentile(sorted, 0.50, &beyond50);
    const double p95 = Percentile(sorted, 0.95, &beyond95);
    const double p99 = Percentile(sorted, 0.99, &beyond99);
    std::printf("# samples=%zu (each the median of %llu replays) "
                "beyond_p95=%zu beyond_p99=%zu\n",
                n, static_cast<unsigned long long>(untraced.passes), beyond95,
                beyond99);
    const double sc = SustainabilityPct(&w, sample);
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("service_p50_ms", p50, "ms");
    result.Add("service_p95_ms", p95, "ms");
    result.Add("service_p99_ms", p99, "ms");
    result.Add("throughput_rps",
               static_cast<double>(n) / (Sum(service) * 1e-3), "1/s");
    result.Add("sc_pct", sc, "%");
    result.Add("rss_peak_mb",
               PeakRssMb() - reference.resident_bytes() / (1024.0 * 1024.0),
               "MB");
    std::printf("# failed_pct=%.4f\n", Pct(failed, attempted));
  } else {
    // Traced half: the same stream through the span-traced mirror, whose
    // tables must match the untraced digest.
    Tracer tracer;
    RegistryTotals totals;
    Replays traced(n);
    uint64_t traced_digest = 0;
    PathCounts traced_paths;
    uint64_t publishes = 0, publish_ns = 0;
    do {
      cpus.Next();
      const PassResult p =
          TracedPass(&w, &reference, &tracer, &totals, &pass_ms);
      traced_digest = p.ledger.digest();
      traced_paths.fresh += p.paths.fresh;
      traced_paths.adapted += p.paths.adapted;
      traced_paths.corridor_hits += p.paths.corridor_hits;
      publishes += p.publishes;
      publish_ns += p.publish_ns;
      traced.Add(p, pass_ms, table_digest);
    } while (traced.wall_s < 0.5 * args.seconds);
    attempted += traced.requests;
    failed += traced.failed;
    correct = correct && traced.failed == 0 && traced.digest_mismatches == 0;
    std::printf("# table_digest=%016llx\n",
                static_cast<unsigned long long>(traced_digest));
    PrintPaths("traced", traced_paths);
    auto T = [&tracer](SpanKind k) { return tracer.totals(k); };
    auto ms_per = [](double ns, double n) { return n > 0 ? ns / n / 1e6 : 0; };
    const double reqs = static_cast<double>(traced.requests);
    const double fresh_ranks =
        static_cast<double>(T(SpanKind::kFilter).count);

    // Layer self times (ns). The root span's own self time is the part of
    // a request no named layer covers.
    const double batch = static_cast<double>(totals.batch_ns);
    const double customize = static_cast<double>(totals.customize_ns);
    const double self_server =
        static_cast<double>(T(SpanKind::kCorridorLookup).self_ns +
                            T(SpanKind::kCorridorPut).self_ns);
    const double self_core =
        static_cast<double>(T(SpanKind::kDynamicCache).self_ns +
                            T(SpanKind::kAdapt).self_ns +
                            T(SpanKind::kFilter).self_ns +
                            T(SpanKind::kScore).self_ns +
                            T(SpanKind::kRefine).self_ns) -
        batch;
    const double self_spatial =
        static_cast<double>(T(SpanKind::kSpatialRange).self_ns);
    const double self_eis = static_cast<double>(T(SpanKind::kEisFetch).self_ns);
    const double self_traffic = batch - customize;
    const double self_ch = customize;
    const double unattributed =
        static_cast<double>(T(SpanKind::kRequest).self_ns);
    const double root = static_cast<double>(T(SpanKind::kRequest).total_ns);
    const double layer_sum = self_server + self_core + self_spatial +
                             self_eis + self_traffic + self_ch + unattributed;
    std::printf(
        "# self time (ms): server=%.1f core=%.1f spatial=%.1f eis=%.1f "
        "traffic=%.1f ch=%.1f unattributed=%.1f sum=%.1f "
        "server.request=%.1f\n",
        self_server / 1e6, self_core / 1e6, self_spatial / 1e6,
        self_eis / 1e6, self_traffic / 1e6, self_ch / 1e6,
        unattributed / 1e6, layer_sum / 1e6, root / 1e6);
    // The rows must sum to the root span and none may be negative; a
    // negative row means a registry timer was attributed to the wrong
    // parent span.
    const bool attribution_ok =
        std::fabs(layer_sum - root) <= 0.001 * root &&
        std::min({self_core, self_traffic, self_ch}) >= 0.0 &&
        Pct(unattributed, root) <= kUnattributedTolerancePct;
    if (!attribution_ok) {
      std::fprintf(stderr, "layer self times do not sum to the root span\n");
    }
    correct = correct && attribution_ok;

    const uint64_t weather_lookups =
        totals.eis.weather_cache.hits + totals.eis.weather_cache.misses;
    const uint64_t avail_lookups = totals.eis.availability_cache.hits +
                                   totals.eis.availability_cache.misses;
    const uint64_t traffic_lookups =
        totals.eis.traffic_cache.hits + totals.eis.traffic_cache.misses;
    const double fetches = static_cast<double>(tracer.weather_fetches +
                                               tracer.availability_fetches +
                                               tracer.traffic_fetches);
    const double batches = static_cast<double>(totals.batches);
    const bool ch_on = w.env->ch != nullptr;

    result.Add("spatial.range_ms",
               ms_per(T(SpanKind::kSpatialRange).total_ns,
                      T(SpanKind::kSpatialRange).count),
               "ms");
    result.Add("spatial.results_per_query",
               T(SpanKind::kSpatialRange).count
                   ? static_cast<double>(tracer.range_results) /
                         T(SpanKind::kSpatialRange).count
                   : 0.0,
               "count");
    result.Add("eis.fetch_ms", ms_per(T(SpanKind::kEisFetch).total_ns, reqs),
               "ms");
    result.Add("eis.fetches_per_request", reqs > 0 ? fetches / reqs : 0.0,
               "count");
    result.Add("eis.weather.hit_pct",
               Pct(totals.eis.weather_cache.hits, weather_lookups), "%");
    result.Add("eis.availability.hit_pct",
               Pct(totals.eis.availability_cache.hits, avail_lookups), "%");
    result.Add("eis.traffic.hit_pct",
               Pct(totals.eis.traffic_cache.hits, traffic_lookups), "%");
    result.Add("core.adapt_pct", Pct(traced_paths.adapted, reqs), "%");
    result.Add("core.filter_ms",
               ms_per(T(SpanKind::kFilter).total_ns, fresh_ranks), "ms");
    result.Add("core.score_ms",
               ms_per(T(SpanKind::kScore).total_ns, fresh_ranks), "ms");
    result.Add("core.refine_ms",
               ms_per(T(SpanKind::kRefine).total_ns, fresh_ranks), "ms");
    result.Add("core.candidates_per_fresh",
               fresh_ranks > 0 ? tracer.candidates / fresh_ranks : 0.0,
               "count");
    result.Add("traffic.batch_ms", ms_per(batch, batches), "ms");
    result.Add("traffic.targets_per_batch",
               batches > 0 ? totals.batch_targets / batches : 0.0, "count");
    result.Add("traffic.warm_start_pct", Pct(totals.warm_starts, batches),
               "%");
    result.Add("ch.customize_ms",
               ms_per(customize, static_cast<double>(totals.customizations)),
               "ms");
    result.Add("ch.customizations_per_fresh",
               fresh_ranks > 0 ? totals.customizations / fresh_ranks : 0.0,
               "count");
    result.Add("ch.plane_hit_pct",
               Pct(totals.plane_hits, totals.plane_hits + totals.plane_misses),
               "%");
    result.Add("ch.query_ms", ch_on ? ms_per(batch - customize, batches) : 0.0,
               "ms");
    result.Add("server.request_ms",
               ms_per(root, T(SpanKind::kRequest).count), "ms");
    result.Add("server.corridor.hit_pct", Pct(traced_paths.corridor_hits, reqs),
               "%");
    result.Add("server.corridor.lookup_ms",
               ms_per(T(SpanKind::kCorridorLookup).total_ns,
                      T(SpanKind::kCorridorLookup).count),
               "ms");
    result.Add("server.epoch.publish_ms",
               ms_per(publish_ns, publishes), "ms");
    result.Add("graph.build_s", Median(graph_s), "s");
    result.Add("ch.contract_s", Median(ch_s), "s");
    result.Add("spatial.build_s", Median(spatial_s), "s");
    result.Add("trace.overhead_pct",
               100.0 * (Sum(traced.ServiceMs()) /
                        Sum(untraced.ServiceMs()) -
                    1.0),
               "%");
    result.Add("trace.unattributed_pct", Pct(unattributed, root), "%");
    result.Add("share.server_pct", Pct(self_server, root), "%");
    result.Add("share.core_pct", Pct(self_core, root), "%");
    result.Add("share.spatial_pct", Pct(self_spatial, root), "%");
    result.Add("share.eis_pct", Pct(self_eis, root), "%");
    result.Add("share.traffic_pct", Pct(self_traffic, root), "%");
    result.Add("share.ch_pct", Pct(self_ch, root), "%");
    result.Add("failed_pct", Pct(failed, attempted), "%");
  }
  result.Print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload city_trips|regional_ch|"
                 "corridor_fleet --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
