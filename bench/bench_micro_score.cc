// Filter/score hot-path gate: the SoA scoring/ranking kernels
// (DESIGN.md §15) against a faithful replica of the pre-refactor AoS path
// (per-candidate ComputeScorePair + full std::sort ranking), swept over
// candidate batch sizes, plus end-to-end Offering Table parity between
// columnar and per-candidate EC estimation across every spatial backend.
//
// The binary asserts the hot path's contract and exits 1 when it breaks:
//   1. the SoA score kernel is bit-identical to ComputeScorePair, and the
//      keyed partial select returns exactly the AoS full-sort prefix;
//   2. the SoA path is >= 1.5x faster than the AoS replica once the batch
//      holds >= 64 candidates (the layout and the partial select carry
//      the win, not intrinsics);
//   3. with columnar and per-candidate estimation, EcoChargeRanker
//      produces bitwise-identical Offering Tables on every spatial
//      backend.
// Timing uses interleaved min-of-rounds (see bench_micro_obs.cc for why).
// Results are emitted as BENCH_score.json.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/ecocharge.h"
#include "core/simd_score.h"
#include "spatial/index_factory.h"

namespace ecocharge {
namespace {

constexpr double kMinSpeedupAt64 = 1.5;
constexpr size_t kTopK = 8;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// One synthetic candidate batch: well-formed EC intervals in SoA lanes
/// plus the identical AoS view the pre-refactor path consumed.
struct Batch {
  simd::ScoreLanes lanes;
  std::vector<EcIntervals> aos;

  static Batch Fuzzed(size_t n, uint64_t seed) {
    Batch b;
    Rng rng(seed);
    b.lanes.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      EcIntervals ecs;
      ecs.level = Interval::FromUnordered(rng.NextDouble(), rng.NextDouble());
      ecs.availability =
          Interval::FromUnordered(rng.NextDouble(), rng.NextDouble());
      ecs.derouting =
          Interval::FromUnordered(rng.NextDouble(), rng.NextDouble());
      b.aos.push_back(ecs);
      b.lanes.level_lo.push_back(ecs.level.lo);
      b.lanes.level_hi.push_back(ecs.level.hi);
      b.lanes.avail_lo.push_back(ecs.availability.lo);
      b.lanes.avail_hi.push_back(ecs.availability.hi);
      b.lanes.der_lo.push_back(ecs.derouting.lo);
      b.lanes.der_hi.push_back(ecs.derouting.hi);
      b.lanes.ids.push_back(static_cast<uint32_t>(i));
    }
    b.lanes.sc_min.resize(n);
    b.lanes.sc_max.resize(n);
    b.lanes.mid.resize(n);
    b.lanes.keys_mid.resize(n);
    return b;
  }
};

/// The pre-refactor shape: score each candidate from the AoS intervals,
/// then rank by a full std::sort on (midpoint desc, id asc) and truncate.
/// Returns the top-k ids; `scores` receives every candidate's pair.
void AosScoreAndRank(const std::vector<EcIntervals>& aos,
                     const ScoreWeights& w, size_t k,
                     std::vector<ScorePair>* scores,
                     std::vector<uint32_t>* top) {
  const size_t n = aos.size();
  scores->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*scores)[i] = ComputeScorePair(aos[i], w);
  }
  top->resize(n);
  std::iota(top->begin(), top->end(), 0u);
  std::sort(top->begin(), top->end(), [&](uint32_t a, uint32_t b) {
    const double ma = (*scores)[a].Mid();
    const double mb = (*scores)[b].Mid();
    if (ma != mb) return ma > mb;
    return a < b;
  });
  top->resize(std::min(k, n));
}

/// The new shape: SoA kernels + total-order keys + partial top-k select.
void SoaScoreAndRank(Batch* b, const ScoreWeights& w, size_t k,
                     std::vector<uint32_t>* top) {
  simd::ScoreLanes& L = b->lanes;
  const size_t n = L.level_lo.size();
  simd::ScoreIntervals(L.level_lo.data(), L.level_hi.data(),
                       L.avail_lo.data(), L.avail_hi.data(), L.der_lo.data(),
                       L.der_hi.data(), n, w, L.sc_min.data(),
                       L.sc_max.data());
  simd::Midpoints(L.sc_min.data(), L.sc_max.data(), n, L.mid.data());
  simd::DescendingKeys(L.mid.data(), n, L.keys_mid.data());
  top->resize(n);
  std::iota(top->begin(), top->end(), 0u);
  simd::PartialSelectDescending(L.keys_mid.data(), L.ids.data(), top->data(),
                                n, std::min(k, n));
  top->resize(std::min(k, n));
}

bool TablesBitwiseEqual(const OfferingTable& a, const OfferingTable& b,
                        size_t* compared) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const OfferingEntry& x = a.entries[i];
    const OfferingEntry& y = b.entries[i];
    if (x.charger_id != y.charger_id ||
        Bits(x.score.sc_min) != Bits(y.score.sc_min) ||
        Bits(x.score.sc_max) != Bits(y.score.sc_max) ||
        Bits(x.ecs.level.lo) != Bits(y.ecs.level.lo) ||
        Bits(x.ecs.level.hi) != Bits(y.ecs.level.hi) ||
        Bits(x.ecs.availability.lo) != Bits(y.ecs.availability.lo) ||
        Bits(x.ecs.availability.hi) != Bits(y.ecs.availability.hi) ||
        Bits(x.ecs.derouting.lo) != Bits(y.ecs.derouting.lo) ||
        Bits(x.ecs.derouting.hi) != Bits(y.ecs.derouting.hi) ||
        Bits(x.eta_s) != Bits(y.eta_s)) {
      return false;
    }
    ++(*compared);
  }
  return true;
}

int Main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::FromArgs(argc, argv);
  const ScoreWeights w = ScoreWeights::AWE();

  bench::BenchJsonWriter json;
  TableWriter tw({"candidates", "aos+sort us", "soa+select us", "speedup"});
  bool ok = true;

  // --- Part 1: kernel parity + speedup over the AoS replica. -------------
  const size_t batch_sizes[] = {16, 64, 256, 1024};
  const int kRounds = cfg.repetitions > 1 ? 9 : 5;
  const int kPassesPerRound = 64;  // batches are microseconds; amortize clock
  for (size_t n : batch_sizes) {
    Batch batch = Batch::Fuzzed(n, cfg.seed ^ (n * 0x9E3779B97F4A7C15ull));
    std::vector<ScorePair> aos_scores;
    std::vector<uint32_t> aos_top, soa_top;

    // Parity first: SoA scores vs ComputeScorePair, bit for bit, and the
    // keyed partial select vs the AoS full-sort prefix.
    AosScoreAndRank(batch.aos, w, kTopK, &aos_scores, &aos_top);
    SoaScoreAndRank(&batch, w, kTopK, &soa_top);
    for (size_t i = 0; i < n; ++i) {
      if (Bits(batch.lanes.sc_min[i]) != Bits(aos_scores[i].sc_min) ||
          Bits(batch.lanes.sc_max[i]) != Bits(aos_scores[i].sc_max)) {
        std::cerr << "FAIL: SoA score differs from ComputeScorePair at lane "
                  << i << " (n=" << n << ")\n";
        ok = false;
      }
    }
    if (soa_top != aos_top) {
      std::cerr << "FAIL: partial select prefix differs from full-sort "
                   "prefix (n="
                << n << ")\n";
      ok = false;
    }

    // Interleaved min-of-rounds.
    uint64_t aos_ns = UINT64_MAX;
    uint64_t soa_ns = UINT64_MAX;
    for (int round = 0; round < kRounds; ++round) {
      for (int side = 0; side < 2; ++side) {
        const bool run_soa = (round + side) % 2 == 1;
        const uint64_t start = NowNs();
        for (int pass = 0; pass < kPassesPerRound; ++pass) {
          if (run_soa) {
            SoaScoreAndRank(&batch, w, kTopK, &soa_top);
          } else {
            AosScoreAndRank(batch.aos, w, kTopK, &aos_scores, &aos_top);
          }
        }
        const uint64_t elapsed = NowNs() - start;
        uint64_t& best = run_soa ? soa_ns : aos_ns;
        best = std::min(best, elapsed);
      }
    }
    const double speedup = static_cast<double>(aos_ns) /
                           static_cast<double>(std::max<uint64_t>(soa_ns, 1));
    tw.AddRow({std::to_string(n), TableWriter::Fmt(aos_ns / 1e3, 1),
               TableWriter::Fmt(soa_ns / 1e3, 1),
               TableWriter::Fmt(speedup, 2) + "x"});
    json.BeginRecord();
    json.Str("mode", "soa_vs_aos");
    json.Num("candidates", static_cast<double>(n));
    json.Num("top_k", static_cast<double>(kTopK));
    json.Num("passes", static_cast<double>(kPassesPerRound));
    json.Num("aos_ns", static_cast<double>(aos_ns));
    json.Num("soa_ns", static_cast<double>(soa_ns));
    json.Num("speedup", speedup);
    if (n >= 64 && speedup < kMinSpeedupAt64) {
      std::cerr << "FAIL: SoA path only " << speedup << "x faster at " << n
                << " candidates (floor " << kMinSpeedupAt64 << "x)\n";
      ok = false;
    }
  }

  std::cout << "bench_micro_score: top-" << kTopK << ", min of " << kRounds
            << " interleaved rounds x " << kPassesPerRound << " passes\n\n";
  tw.RenderText(std::cout);

  // --- Part 2: table parity, columnar vs per-candidate estimation. ------
  std::cout << "\nbackend parity (columnar vs per-candidate estimation, "
               "bitwise tables):\n";
  for (SpatialIndexKind kind : kAllSpatialIndexKinds) {
    bench::BenchConfig backend_cfg = cfg;
    backend_cfg.index_kind = kind;
    bench::PreparedWorld world =
        bench::Prepare(DatasetKind::kOldenburg, backend_cfg);
    EcoChargeOptions opts;
    opts.radius_m = cfg.radius_m;
    opts.q_distance_m = 0.0;  // regenerate every query: exercise the path
    opts.refine_exact_derouting = true;
    EcoChargeOptions oracle_opts = opts;
    oracle_opts.use_simd = false;
    EcoChargeRanker columnar_ranker(world.env->estimator.get(),
                                    world.env->charger_index.get(), w, opts);
    EcoChargeRanker oracle_ranker(world.env->estimator.get(),
                                  world.env->charger_index.get(), w,
                                  oracle_opts);
    QueryContext columnar_ctx, oracle_ctx;
    OfferingTable columnar_table, oracle_table;
    size_t compared = 0;
    size_t mismatches = 0;
    for (const VehicleState& state : world.states) {
      columnar_ranker.RankInto(state, cfg.k, columnar_ctx, &columnar_table);
      oracle_ranker.RankInto(state, cfg.k, oracle_ctx, &oracle_table);
      if (!TablesBitwiseEqual(columnar_table, oracle_table, &compared)) {
        ++mismatches;
      }
    }
    std::cout << "  " << SpatialIndexKindName(kind) << ": "
              << world.states.size() << " states, " << compared
              << " entries compared, " << mismatches << " mismatches\n";
    json.BeginRecord();
    json.Str("mode", "backend_parity");
    json.Str("index", std::string(SpatialIndexKindName(kind)));
    json.Num("states", static_cast<double>(world.states.size()));
    json.Num("entries_compared", static_cast<double>(compared));
    json.Num("mismatched_tables", static_cast<double>(mismatches));
    if (mismatches > 0 || compared == 0) {
      std::cerr << "FAIL: " << SpatialIndexKindName(kind) << " backend: "
                << mismatches << " mismatched tables (" << compared
                << " entries compared)\n";
      ok = false;
    }
  }

  if (!json.WriteFile("BENCH_score.json")) {
    std::cerr << "failed to write BENCH_score.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_score.json (" << json.num_records()
            << " records)\n";
  if (!ok) return 1;
  std::cout << "PASS: columnar/per-candidate bit parity on all backends, "
               "SoA >= "
            << kMinSpeedupAt64 << "x at >= 64 candidates\n";
  return 0;
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
