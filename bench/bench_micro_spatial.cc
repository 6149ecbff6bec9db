// Micro-benchmarks of the spatial index: build, kNN, and range queries
// (the sorted allocating form and the unordered `...Into` form) on the
// quadtree and its linear-scan oracle, over point-cloud sizes bracketing
// the paper's charger fleets.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "spatial/index_factory.h"

namespace ecocharge {
namespace {

std::vector<Point> MakeCloud(size_t n, uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.NextDouble(0.0, 50000.0),
                      rng.NextDouble(0.0, 40000.0)});
  }
  return points;
}

// state.range(0) indexes kAllSpatialIndexKinds.
SpatialIndexKind KindArg(const benchmark::State& state) {
  return kAllSpatialIndexKinds[static_cast<size_t>(state.range(0))];
}

void BM_IndexBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(1));
  std::vector<Point> cloud = MakeCloud(n);
  for (auto _ : state) {
    auto index = MakeSpatialIndex(KindArg(state));
    index->Build(cloud);
    benchmark::DoNotOptimize(index->size());
  }
  state.SetLabel(std::string(SpatialIndexKindName(KindArg(state))));
}
BENCHMARK(BM_IndexBuild)->ArgsProduct({{0, 1}, {1000, 10000}});

void BM_IndexKnn(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(1));
  auto index = MakeSpatialIndex(KindArg(state));
  index->Build(MakeCloud(n));
  Rng rng(7);
  for (auto _ : state) {
    Point q{rng.NextDouble(0.0, 50000.0), rng.NextDouble(0.0, 40000.0)};
    benchmark::DoNotOptimize(index->Knn(q, 8));
  }
  state.SetLabel(std::string(SpatialIndexKindName(KindArg(state))));
}
BENCHMARK(BM_IndexKnn)->ArgsProduct({{0, 1}, {1000, 10000}});

void BM_IndexRange(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(1));
  auto index = MakeSpatialIndex(KindArg(state));
  index->Build(MakeCloud(n));
  Rng rng(7);
  for (auto _ : state) {
    Point q{rng.NextDouble(0.0, 50000.0), rng.NextDouble(0.0, 40000.0)};
    benchmark::DoNotOptimize(index->RangeSearch(q, 5000.0));
  }
  state.SetLabel(std::string(SpatialIndexKindName(KindArg(state))));
}
BENCHMARK(BM_IndexRange)->ArgsProduct({{0, 1}, {1000, 10000}});

// The unordered form the filtering phase calls: caller-owned scratch and
// output, no sort. BM_IndexRange minus this is what canonical order costs.
void BM_IndexRangeInto(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(1));
  auto index = MakeSpatialIndex(KindArg(state));
  index->Build(MakeCloud(n));
  IndexScratch scratch;
  std::vector<Neighbor> out;
  Rng rng(7);
  for (auto _ : state) {
    Point q{rng.NextDouble(0.0, 50000.0), rng.NextDouble(0.0, 40000.0)};
    index->RangeSearchInto(q, 5000.0, &scratch, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(SpatialIndexKindName(KindArg(state))));
}
BENCHMARK(BM_IndexRangeInto)->ArgsProduct({{0, 1}, {1000, 10000}});

}  // namespace
}  // namespace ecocharge

BENCHMARK_MAIN();
