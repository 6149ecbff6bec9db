// Observability overhead gate: attaching the full metrics registry to a
// ranker (phase-timer histograms + pipeline counters resolved, recording
// live) must cost less than 2% on both query paths a serving worker runs:
//
//  - fresh: Dynamic Caching off, so every query filters, scores, selects
//    and exact-refines, and every `pipeline.*` timer and counter fires;
//  - cached: every repeat query is a Dynamic Cache hit, which copies the
//    stored table and records no metric — the path a serving worker runs
//    thousands of times per second.
//
// Per path, two identically configured rankers serve the same workload;
// one has a MetricsRegistry attached, the other runs bare. Rounds are
// interleaved (A, B, A, B, ...) so frequency scaling and cache pollution
// hit both sides equally, and each side keeps its minimum-of-rounds —
// the least-noisy estimate of the true cost. Exits 1 when either path
// violates the overhead bound, so the check can run in CI as a plain
// binary.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "core/ecocharge.h"
#include "obs/metrics.h"
#include "obs/statsz.h"

namespace ecocharge {
namespace {

constexpr double kMaxOverheadFraction = 0.02;

uint64_t RunRound(EcoChargeRanker& ranker,
                  const std::vector<VehicleState>& states, int reps,
                  QueryContext& ctx, OfferingTable* table) {
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const VehicleState& state : states) {
      ranker.RankInto(state, 3, ctx, table);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

struct PathResult {
  double bare_ns = 0.0;          ///< per query, min of rounds
  double instrumented_ns = 0.0;  ///< per query, min of rounds
  double overhead = 0.0;         ///< instrumented / bare - 1
  uint64_t measured_queries = 0;  ///< instrumented queries after warm-up
};

/// Times `opts` bare against metrics-attached into `registry`: `rounds`
/// interleaved rounds of `round_reps` passes over the workload.
PathResult MeasurePath(const bench::PreparedWorld& world,
                       const EcoChargeOptions& opts, int round_reps,
                       int rounds, obs::MetricsRegistry* registry) {
  EcoChargeRanker bare(world.env->estimator.get(),
                       world.env->charger_index.get(), ScoreWeights::AWE(),
                       opts);
  EcoChargeRanker instrumented(world.env->estimator.get(),
                               world.env->charger_index.get(),
                               ScoreWeights::AWE(), opts);
  instrumented.AttachMetrics(registry);

  QueryContext ctx;
  OfferingTable table;
  // Warm caches, contexts, and the registry's resolved handles.
  constexpr int kWarmupReps = 3;
  RunRound(bare, world.states, kWarmupReps, ctx, &table);
  RunRound(instrumented, world.states, kWarmupReps, ctx, &table);

  // Short rounds, many of them, alternating which side is measured first:
  // container noise (frequency scaling, a neighbour finishing a build)
  // arrives in bursts of seconds, so each side needs many independent
  // short windows for its minimum to land in a quiet one, and the
  // alternation cancels any systematic first-runner advantage.
  uint64_t bare_ns = UINT64_MAX;
  uint64_t instrumented_ns = UINT64_MAX;
  for (int round = 0; round < rounds; ++round) {
    EcoChargeRanker* order[2] = {&bare, &instrumented};
    if (round % 2 == 1) std::swap(order[0], order[1]);
    for (EcoChargeRanker* ranker : order) {
      uint64_t ns = RunRound(*ranker, world.states, round_reps, ctx, &table);
      uint64_t& best = (ranker == &bare) ? bare_ns : instrumented_ns;
      best = std::min(best, ns);
    }
  }

  PathResult r;
  const uint64_t queries_per_round =
      static_cast<uint64_t>(round_reps) * world.states.size();
  r.bare_ns =
      static_cast<double>(bare_ns) / static_cast<double>(queries_per_round);
  r.instrumented_ns = static_cast<double>(instrumented_ns) /
                      static_cast<double>(queries_per_round);
  r.overhead = r.instrumented_ns / r.bare_ns - 1.0;
  r.measured_queries = queries_per_round * static_cast<uint64_t>(rounds);
  return r;
}

uint64_t HistogramCount(const obs::MetricsRegistry& registry,
                        const char* name) {
  const obs::Histogram* h = registry.FindHistogram(name);
  return h == nullptr ? 0 : h->Snapshot().count;
}

int Main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::FromArgs(argc, argv);
  bench::PreparedWorld world = bench::Prepare(DatasetKind::kOldenburg, cfg);

  // Fresh: every query regenerates and exact-refines.
  EcoChargeOptions fresh_opts;
  fresh_opts.radius_m = cfg.radius_m;
  fresh_opts.use_dynamic_cache = false;
  fresh_opts.refine_exact_derouting = true;

  // Cached: every repeat query adapts the cached table.
  EcoChargeOptions cached_opts;
  cached_opts.radius_m = cfg.radius_m;
  cached_opts.q_distance_m = 1e9;
  cached_opts.cache_ttl_s = 1e12;
  cached_opts.refine_exact_derouting = false;

  // A fresh query costs ten thousand times a hit, so a fresh round is one
  // pass over the workload (~5 ms) and it gets more rounds: a 2% budget
  // on it needs a minimum that lands in a quiet window.
  constexpr int kFreshRounds = 100;
  constexpr int kFreshRoundReps = 1;
  constexpr int kCachedRounds = 40;
  constexpr int kCachedRoundReps = 20;
  obs::MetricsRegistry fresh_registry;
  obs::MetricsRegistry cached_registry;
  const PathResult fresh = MeasurePath(world, fresh_opts, kFreshRoundReps,
                                       kFreshRounds, &fresh_registry);
  const PathResult cached = MeasurePath(world, cached_opts, kCachedRoundReps,
                                        kCachedRounds, &cached_registry);

  struct NamedPath {
    std::string name;
    const PathResult& result;
  };
  const NamedPath paths[] = {{"fresh", fresh}, {"cached", cached}};
  TableWriter tw({"path", "ns/query", "overhead"});
  for (const NamedPath& p : paths) {
    tw.AddRow({p.name + ", bare", TableWriter::Fmt(p.result.bare_ns, 1), "-"});
    tw.AddRow({p.name + ", metrics attached",
               TableWriter::Fmt(p.result.instrumented_ns, 1),
               TableWriter::Fmt(p.result.overhead * 100.0, 2) + "%"});
  }
  std::cout << "bench_micro_obs: min of interleaved rounds; fresh "
            << kFreshRounds << " x " << kFreshRoundReps * world.states.size()
            << " queries, cached " << kCachedRounds << " x "
            << kCachedRoundReps * world.states.size() << " queries\n\n";
  tw.RenderText(std::cout);

  // The instrumentation actually fired — a no-op would pass trivially. On
  // the fresh path every phase timer records every measured query.
  for (const char* name : {"pipeline.filter_ns", "pipeline.score_ns",
                           "pipeline.refine_ns",
                           "pipeline.batch_derouting_ns"}) {
    if (HistogramCount(fresh_registry, name) < fresh.measured_queries) {
      std::cerr << "FAIL: " << name << " recorded "
                << HistogramCount(fresh_registry, name) << " of "
                << fresh.measured_queries
                << " fresh queries; the fresh path was not instrumented\n";
      return 1;
    }
  }
  // The cached path's warm-up regenerates once; its hits record nothing.
  if (HistogramCount(cached_registry, "pipeline.refine_ns") == 0) {
    std::cerr << "FAIL: pipeline.refine_ns never recorded; the instrumented "
                 "cached ranker was not actually instrumented\n";
    return 1;
  }

  bool pass = true;
  for (const NamedPath& p : paths) {
    if (p.result.overhead >= kMaxOverheadFraction) {
      std::cerr << "FAIL: " << p.name << " path metrics overhead "
                << p.result.overhead * 100.0 << "% exceeds the "
                << kMaxOverheadFraction * 100.0 << "% budget\n";
      pass = false;
    }
  }
  if (!pass) return 1;
  std::cout << "\nPASS: overhead fresh "
            << TableWriter::Fmt(fresh.overhead * 100.0, 2) << "%, cached "
            << TableWriter::Fmt(cached.overhead * 100.0, 2) << "% < "
            << kMaxOverheadFraction * 100.0 << "% budget\n";
  return 0;
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
