#ifndef ECOCHARGE_CH_CH_INDEX_H_
#define ECOCHARGE_CH_CH_INDEX_H_

#include <memory>

#include "common/result.h"
#include "graph/io.h"
#include "graph/road_network.h"

namespace ecocharge {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// The contraction-hierarchy names perfbench's regional_ch setup still
// calls. Exact derouting runs the Dijkstra sweeps only (DESIGN.md §14), so
// nothing contracts, stores or reads a hierarchy: every name below is
// inert. ch/contraction.h and ch/ch_customize.h include this header.

/// An empty hierarchy.
class ChIndex {};

/// Returns an empty hierarchy; `network` is not read.
inline Result<std::shared_ptr<ChIndex>> BuildChIndex(
    const RoadNetwork& /*network*/) {
  return std::make_shared<ChIndex>();
}

/// Empty views: SaveSnapshot writes no hierarchy sections.
inline ChSnapshotViews ToSnapshotViews(std::shared_ptr<const ChIndex> /*ch*/) {
  return {};
}

/// Holds no state and registers no metric.
class ChCustomizationCache {
 public:
  explicit ChCustomizationCache(const ChIndex& /*ch*/, int /*threads*/ = 0) {}

  void AttachMetrics(obs::MetricsRegistry* /*registry*/) {}
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_INDEX_H_
