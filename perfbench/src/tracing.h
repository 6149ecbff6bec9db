// Benchmark-side tracing: spans recorded around calls into the program's
// public functions (nothing inside the program is changed).
//
// Spans nest on one stack per tracer (the benchmark serves from a single
// thread). Each closed span adds its duration to its kind's total and to
// its parent's child time, so a kind's self time is its duration minus the
// part its child spans cover. Totals stay in memory and are turned into the
// per-layer metrics when the run ends.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "eis/information_server.h"
#include "spatial/spatial_index.h"

namespace perfbench {

/// What a span wraps. The prefix names the layer it is attributed to.
enum class SpanKind : uint8_t {
  kRequest,         ///< root: one served request
  kCorridorLookup,  ///< server: CorridorCache::KeyFor + GetInto
  kCorridorPut,     ///< server: CorridorCache::Put after a miss
  kDynamicCache,    ///< core: DynamicCache::TryReuse / Store
  kAdapt,           ///< core: re-rank of a reused Dynamic-Cache solution
  kFilter,          ///< core: CknnEcProcessor::FilterCandidates
  kScore,           ///< core: CknnEcProcessor::ScoreCandidates
  kRefine,          ///< core: CknnEcProcessor::RefineAndRank
  kSpatialRange,    ///< spatial: SpatialIndex::RangeSearchInto
  kEisFetch,        ///< eis: InformationServer::Get*
  kCount,
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  void Begin(SpanKind kind) {
    Frame& f = stack_[depth_++];
    f.kind = kind;
    f.child_ns = 0;
    f.start = std::chrono::steady_clock::now();
  }

  void End() {
    const auto end = std::chrono::steady_clock::now();
    Frame& f = stack_[--depth_];
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - f.start)
            .count());
    SpanTotals& t = totals_[static_cast<size_t>(f.kind)];
    ++t.count;
    t.total_ns += ns;
    t.self_ns += ns - std::min(ns, f.child_ns);
    if (depth_ > 0) stack_[depth_ - 1].child_ns += ns;
  }

  const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }

  // Counts recorded at the same boundaries as the spans.
  uint64_t range_results = 0;
  uint64_t weather_fetches = 0;
  uint64_t availability_fetches = 0;
  uint64_t traffic_fetches = 0;
  uint64_t candidates = 0;

 private:
  struct Frame {
    SpanKind kind = SpanKind::kRequest;
    uint64_t child_ns = 0;
    std::chrono::steady_clock::time_point start;
  };
  static constexpr size_t kMaxDepth = 16;

  std::array<Frame, kMaxDepth> stack_{};
  size_t depth_ = 0;
  std::array<SpanTotals, static_cast<size_t>(SpanKind::kCount)> totals_{};
};

/// RAII span.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    tracer_->Begin(kind);
  }
  ~Span() { tracer_->End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Forwarding SpatialIndex decorator: times every range query.
class TracedSpatialIndex : public ecocharge::SpatialIndex {
 public:
  TracedSpatialIndex(const ecocharge::SpatialIndex* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void Build(std::vector<ecocharge::Point> points) override;
  size_t size() const override { return inner_->size(); }
  void KnnInto(const ecocharge::Point& query, size_t k,
               ecocharge::IndexScratch* scratch,
               std::vector<ecocharge::Neighbor>* out) const override;
  void RangeSearchInto(const ecocharge::Point& query, double radius,
                       ecocharge::IndexScratch* scratch,
                       std::vector<ecocharge::Neighbor>* out) const override;
  void BoxSearchInto(const ecocharge::BoundingBox& box,
                     ecocharge::IndexScratch* scratch,
                     std::vector<uint32_t>* out) const override;

 private:
  const ecocharge::SpatialIndex* inner_;
  Tracer* tracer_;
};

/// InformationServer that times every upstream Get* call; the cache hit
/// rates come from the base class's Snapshot().
class TracedInformationServer : public ecocharge::InformationServer {
 public:
  TracedInformationServer(ecocharge::SolarEnergyService* energy,
                          const ecocharge::AvailabilityService* availability,
                          const ecocharge::CongestionModel* congestion,
                          const ecocharge::EisOptions& options,
                          Tracer* tracer)
      : InformationServer(energy, availability, congestion, options),
        tracer_(tracer) {}

  ecocharge::EnergyForecast GetEnergyForecast(
      const ecocharge::EvCharger& charger, ecocharge::SimTime now,
      ecocharge::SimTime target, double window_s,
      ecocharge::EisFetch* fetch) override;
  ecocharge::AvailabilityForecast GetAvailability(
      const ecocharge::EvCharger& charger, ecocharge::SimTime now,
      ecocharge::SimTime target, ecocharge::EisFetch* fetch) override;
  ecocharge::CongestionModel::Band GetTraffic(
      ecocharge::RoadClass road_class, ecocharge::SimTime now,
      ecocharge::SimTime target, ecocharge::EisFetch* fetch) override;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
