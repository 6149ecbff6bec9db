#ifndef ECOCHARGE_CH_CH_CUSTOMIZE_H_
#define ECOCHARGE_CH_CH_CUSTOMIZE_H_

#include "ch/ch_index.h"
#include "obs/metrics.h"

namespace ecocharge {

/// Unused; perfbench still builds one and attaches its registry to it.
/// Exact derouting runs the Dijkstra sweeps only (DESIGN.md §14), so no
/// customized plane is priced or read; the class holds no state and
/// registers no metric.
class ChCustomizationCache {
 public:
  explicit ChCustomizationCache(const ChIndex& /*ch*/, int /*threads*/ = 0) {}

  void AttachMetrics(obs::MetricsRegistry* /*registry*/) {}
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_CUSTOMIZE_H_
