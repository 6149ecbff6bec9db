#include "ch/ch_query.h"

#include <vector>

namespace ecocharge {

namespace {

bool SameWeights(const ChClassWeights& a, const ChClassWeights& b) {
  return a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2];
}

}  // namespace

ChQuery::ChQuery(ChCustomizationCache& cache)
    : cache_(cache), ch_(cache.index()), profile_(ch_) {}

void ChQuery::AttachMetrics(obs::MetricsRegistry* registry) {
  customizations_mirror_ =
      registry != nullptr
          ? registry->GetCounter("ch.customizations", "sweeps")
          : nullptr;
}

void ChQuery::EnsureCustomized(const ChClassWeights& weights) {
  if (plane_ != nullptr && SameWeights(plane_->weights, weights)) return;
  bool built = false;
  std::shared_ptr<const ChCustomization> plane = cache_.Get(weights, &built);
  Adopt(std::move(plane), built);
}

bool ChQuery::UsePublished(const ChClassWeights& weights) {
  if (plane_ != nullptr && SameWeights(plane_->weights, weights)) return true;
  std::shared_ptr<const ChCustomization> plane = cache_.Lookup(weights);
  if (plane == nullptr) return false;
  Adopt(std::move(plane), /*built=*/false);
  return true;
}

void ChQuery::Adopt(std::shared_ptr<const ChCustomization> plane, bool built) {
  // The cache dedups across workers; only a plane this call actually
  // built counts as this query's customization.
  if (built) {
    ++customizations_;
    if (customizations_mirror_ != nullptr) customizations_mirror_->Add();
  }
  plane_ = std::move(plane);
  profile_.SetPlanes({&plane_, 1});
}

double ChExactPathCost(ChQuery* query, const RoadNetwork& network,
                       const ChSpace& fwd, const ChSpace& bwd,
                       const EdgeCostFn& cost, SweepDirection fold,
                       std::vector<EdgeId>* scratch) {
  uint32_t fpos = 0;
  uint32_t bpos = 0;
  if (!(query->MeetSpaces(fwd, bwd, &fpos, &bpos) < kInfiniteCost)) {
    return kInfiniteCost;
  }
  query->UnpackMeet(fwd, fpos, bwd, bpos, scratch);
  // Fold in the reference sweep's association order. A forward Dijkstra
  // accumulates ((0 + c1) + c2) + ... from the source; a backward sweep
  // seeds the far end, so its sum attaches arcs target-side first —
  // iterate the forward-oriented path in reverse (addition commutes
  // bitwise in IEEE 754; only the grouping matters).
  double acc = 0.0;
  if (fold == SweepDirection::kForward) {
    for (EdgeId e : *scratch) acc = acc + cost(network.arc(e));
  } else {
    for (auto it = scratch->rbegin(); it != scratch->rend(); ++it) {
      acc = acc + cost(network.arc(*it));
    }
  }
  return acc;
}

}  // namespace ecocharge
