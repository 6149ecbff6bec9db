// CH customization gate: the cost of pricing the hierarchy for a
// congestion bucket with the pull kernel — one worker or level-parallel —
// and the shared plane cache.
//
// The binary asserts the customization contract and exits 1 when it breaks:
//   1. one worker (threads=0 and 1) and level-parallel (threads=2 and 4)
//      runs produce planes bit-identical — costs AND via assignments — to
//      the reference push sweep (ChCustomizeReference) for every weight
//      vector tried (unconditional);
//   2. the 4-thread sweep is >= 2x faster than serial (asserted only when
//      the machine has >= 4 hardware threads; waived with a message
//      otherwise — parity above still ran);
//   3. N workers hammering the shared ChCustomizationCache over the same
//      B buckets trigger exactly B builds — the cache eliminated
//      >= (N-1)/N of the per-worker customizations.
// Timing uses interleaved min-of-rounds (see bench_micro_obs.cc for why).
// Results are emitted as BENCH_ch_customize.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "graph/road_network.h"
#include "traffic/congestion.h"

namespace ecocharge {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Bitwise plane equality: arc costs and via assignments. memcmp over the
/// doubles is deliberate — it distinguishes -0.0/0.0 and NaN payloads, the
/// contract the derouting parity gates rely on.
bool PlanesSameBits(const ChCustomization& a, const ChCustomization& b) {
  return a.cw_up.size() == b.cw_up.size() &&
         a.cw_down.size() == b.cw_down.size() &&
         a.via_up.size() == b.via_up.size() &&
         a.via_down.size() == b.via_down.size() &&
         std::memcmp(a.cw_up.data(), b.cw_up.data(),
                     a.cw_up.size() * sizeof(double)) == 0 &&
         std::memcmp(a.cw_down.data(), b.cw_down.data(),
                     a.cw_down.size() * sizeof(double)) == 0 &&
         std::memcmp(a.via_up.data(), b.via_up.data(),
                     a.via_up.size() * sizeof(NodeId)) == 0 &&
         std::memcmp(a.via_down.data(), b.via_down.data(),
                     a.via_down.size() * sizeof(NodeId)) == 0;
}

/// Local-road city grid with highway/arterial *feeder spurs*: dead-end
/// chains (on-ramps, service corridors) hanging off boundary nodes, each
/// attached to the grid at a single node, alternating highway and arterial
/// so every road class carries weight. The world is unchanged since the
/// gate's first version, so its timings stay comparable across history.
Result<std::shared_ptr<RoadNetwork>> MakeSpurGrid(int n) {
  constexpr double kSpacingM = 500.0;
  constexpr double kSpurSpacingM = 300.0;
  constexpr int kSpurLen = 6;    // chain nodes per spur
  constexpr int kSpurEvery = 10; // boundary nodes between spur attachments
  GraphBuilder b;
  std::vector<NodeId> grid(static_cast<size_t>(n) * n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      grid[static_cast<size_t>(y) * n + x] =
          b.AddNode(Point{x * kSpacingM, y * kSpacingM});
    }
  }
  auto at = [&](int x, int y) { return grid[static_cast<size_t>(y) * n + x]; };
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x + 1 < n; ++x) {
      ECOCHARGE_RETURN_NOT_OK(
          b.AddBidirectional(at(x, y), at(x + 1, y), RoadClass::kLocal));
    }
  }
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y + 1 < n; ++y) {
      ECOCHARGE_RETURN_NOT_OK(
          b.AddBidirectional(at(x, y), at(x, y + 1), RoadClass::kLocal));
    }
  }
  // Spurs grow outward from the south and north boundaries, alternating
  // highway / arterial so the 2-class delta below is genuine.
  int spur_index = 0;
  auto add_spur = [&](NodeId attach, double ax, double ay,
                      double dy) -> Status {
    const RoadClass rc = (spur_index++ % 2 == 0) ? RoadClass::kHighway
                                                 : RoadClass::kArterial;
    NodeId prev = attach;
    for (int i = 1; i <= kSpurLen; ++i) {
      const NodeId next = b.AddNode(Point{ax, ay + dy * i * kSpurSpacingM});
      ECOCHARGE_RETURN_NOT_OK(b.AddBidirectional(prev, next, rc));
      prev = next;
    }
    return Status::OK();
  };
  for (int x = 0; x < n; x += kSpurEvery) {
    ECOCHARGE_RETURN_NOT_OK(add_spur(at(x, 0), x * kSpacingM, 0.0, -1.0));
    ECOCHARGE_RETURN_NOT_OK(
        add_spur(at(x, n - 1), x * kSpacingM, (n - 1) * kSpacingM, 1.0));
  }
  return b.Build();
}

ChClassWeights WeightsAt(const CongestionModel& congestion, SimTime tau) {
  ChClassWeights w;
  for (int c = 0; c < kChNumClasses; ++c) {
    w.w[c] =
        1.0 / congestion.ActualSpeedFactor(static_cast<RoadClass>(c), tau);
  }
  return w;
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
  if (nodes == 0) nodes = quick ? 90000 : 360000;

  bench::BenchJsonWriter json;
  bool ok = true;

  uint64_t t0 = NowNs();
  auto net_result =
      MakeSpurGrid(static_cast<int>(std::sqrt(static_cast<double>(nodes))));
  if (!net_result.ok()) {
    std::cerr << "generator: " << net_result.status() << "\n";
    return 1;
  }
  std::shared_ptr<RoadNetwork> network = net_result.MoveValueUnsafe();
  std::cout << "graph: " << network->NumNodes() << " nodes, "
            << network->NumEdges() << " edges ("
            << TableWriter::Fmt((NowNs() - t0) / 1e9, 1) << " s)\n";

  t0 = NowNs();
  auto ch_result = BuildChIndex(*network);
  if (!ch_result.ok()) {
    std::cerr << "contraction: " << ch_result.status() << "\n";
    return 1;
  }
  std::shared_ptr<ChIndex> ch = ch_result.MoveValueUnsafe();
  std::cout << "contraction: " << TableWriter::Fmt((NowNs() - t0) / 1e9, 1)
            << " s\n";

  CongestionModel congestion(7);
  // Three congestion buckets: morning rush, midday, evening rush.
  std::vector<ChClassWeights> buckets;
  for (double hour : {8.5, 13.0, 17.5}) {
    buckets.push_back(WeightsAt(congestion, hour * 3600.0));
  }

  // -------------------------------------------------------------------
  // 1. Bit parity: 0/1/2/4 threads vs the reference push sweep, every
  //    bucket. Unconditional — this is the contract
  //    everything else (planes cache, CH batches, Offering Table
  //    parity) rests on.
  // -------------------------------------------------------------------
  // One customizer, re-targeted with set_threads: every strategy shares
  // the same topology, which at full scale is ~100 MB.
  ChCustomizer customizer(*ch, 0);
  size_t parity_planes = 0;
  for (const ChClassWeights& w : buckets) {
    auto want = ChCustomizeReference(*ch, w);
    const auto check = [&](const char* name, const ChCustomization& plane) {
      if (!PlanesSameBits(*want, plane)) {
        std::cerr << "FAIL: " << name
                  << " plane differs from the reference at bucket "
                  << parity_planes << "\n";
        ok = false;
      }
    };
    for (const auto& [threads, name] :
         {std::pair{0, "0-thread"}, std::pair{1, "1-thread"},
          std::pair{2, "2-thread"}, std::pair{4, "4-thread"}}) {
      customizer.set_threads(threads);
      check(name, *customizer.Customize(w));
    }
    ++parity_planes;
  }
  std::cout << "parity: " << parity_planes
            << " buckets priced 0t/1t/2t/4t vs reference, planes "
            << (ok ? "bit-identical" : "MISMATCHED") << "\n";

  // -------------------------------------------------------------------
  // 2. Parallel speedup: 4 threads vs serial, interleaved min-of-rounds.
  // -------------------------------------------------------------------
  const unsigned hw = std::thread::hardware_concurrency();
  const int kRounds = quick ? 3 : 5;
  uint64_t serial_ns = UINT64_MAX, par_ns = UINT64_MAX;
  for (int round = 0; round < kRounds; ++round) {
    for (int side = 0; side < 2; ++side) {
      const bool run_par = (round + side) % 2 == 1;
      customizer.set_threads(run_par ? 4 : 0);
      const uint64_t start = NowNs();
      customizer.Customize(buckets[round % buckets.size()]);
      const uint64_t elapsed = NowNs() - start;
      uint64_t& best = run_par ? par_ns : serial_ns;
      best = std::min(best, elapsed);
    }
  }
  const double par_speedup = static_cast<double>(serial_ns) /
                             static_cast<double>(std::max<uint64_t>(par_ns, 1));
  std::cout << "full sweep: serial " << TableWriter::Fmt(serial_ns / 1e6, 1)
            << " ms, 4 threads " << TableWriter::Fmt(par_ns / 1e6, 1)
            << " ms (" << TableWriter::Fmt(par_speedup, 2) << "x, "
            << customizer.num_levels() << " levels)\n";
  const double par_floor = 2.0;
  if (hw >= 4 && par_speedup < par_floor) {
    std::cerr << "FAIL: 4-thread customization only " << par_speedup
              << "x over serial (floor " << par_floor << "x, "
              << hw << " hardware threads)\n";
    ok = false;
  } else if (hw < 4) {
    std::cout << "note: parallel speedup floor waived — only " << hw
              << " hardware thread(s); bit-parity above still asserted\n";
  }

  // -------------------------------------------------------------------
  // 3. Shared cache dedup: N workers x B buckets must cost B builds.
  // -------------------------------------------------------------------
  const size_t kWorkers = 4;
  ChCustomizationCache cache(*ch, /*threads=*/0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&cache, &buckets] {
        for (const ChClassWeights& weights : buckets) {
          if (cache.Get(weights) == nullptr) std::abort();
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  const uint64_t requested = kWorkers * buckets.size();
  const double eliminated =
      1.0 - static_cast<double>(cache.builds()) /
                static_cast<double>(std::max<uint64_t>(requested, 1));
  const double dedup_floor =
      static_cast<double>(kWorkers - 1) / static_cast<double>(kWorkers);
  std::cout << "shared cache: " << kWorkers << " workers x " << buckets.size()
            << " buckets -> " << cache.builds() << " builds, "
            << cache.hits() << " hits (" << TableWriter::Fmt(eliminated, 3)
            << " of per-worker customizations eliminated)\n";
  if (cache.builds() > buckets.size() || eliminated < dedup_floor) {
    std::cerr << "FAIL: shared cache built " << cache.builds() << " planes for "
              << buckets.size() << " buckets across " << kWorkers
              << " workers (must eliminate >= " << dedup_floor
              << " of requests)\n";
    ok = false;
  }

  json.BeginRecord();
  json.Str("mode", "ch_customize_gate");
  json.Num("nodes", static_cast<double>(network->NumNodes()));
  json.Num("edges", static_cast<double>(network->NumEdges()));
  json.Num("arc_records", static_cast<double>(customizer.total_arcs()));
  json.Num("levels", static_cast<double>(customizer.num_levels()));
  json.Num("hardware_threads", static_cast<double>(hw));
  json.Num("serial_ns", static_cast<double>(serial_ns));
  json.Num("parallel4_ns", static_cast<double>(par_ns));
  json.Num("parallel_speedup", par_speedup);
  json.Num("parallel_floor", par_floor);
  json.Num("cache_builds", static_cast<double>(cache.builds()));
  json.Num("cache_hits", static_cast<double>(cache.hits()));
  json.Num("cache_eliminated", eliminated);
  json.Num("cache_dedup_floor", dedup_floor);

  if (!json.WriteFile("BENCH_ch_customize.json")) {
    std::cerr << "failed to write BENCH_ch_customize.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_ch_customize.json (" << json.num_records()
            << " records)\n";
  if (!ok) return 1;
  std::cout << "PASS: customization bit-identical across strategies; "
            << "parallel " << TableWriter::Fmt(par_speedup, 1)
            << "x, cache dedup " << TableWriter::Fmt(eliminated, 3) << "\n";
  return 0;
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
