#ifndef ECOCHARGE_CH_CH_QUERY_H_
#define ECOCHARGE_CH_CH_QUERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "ch/ch_profile.h"
#include "graph/shortest_path.h"

namespace ecocharge {

/// One endpoint's elimination-tree label space under a query's active
/// plane: a one-lane ChProfileSpace. Spaces are self-contained, so several
/// can be alive at once — a derouting batch builds the vehicle and
/// return-point spaces once and meets every candidate charger's two small
/// spaces against them.
using ChSpace = ChProfileSpace;

/// \brief Reusable elimination-tree query workspace over one ChIndex.
///
/// The hierarchy's topology is metric-independent; what a query needs per
/// class-weight vector is a ChCustomization *plane* (per-arc costs plus the
/// middle node realizing each shortcut). Planes come from the
/// ChCustomizationCache the query is built over — server workers all point
/// at one cache, so a congestion bucket is priced once per process instead
/// of once per worker. The query swaps planes only when the weights
/// actually change, so a query stream at a fixed traffic bucket pays
/// nothing.
///
/// A leg s -> t is the meet of s's forward and t's backward label space
/// (BuildSpace, MeetSpaces), unpacked into original edges (UnpackMeet):
/// a one-lane ChProfileQuery over the active plane.
/// The customized costs pick the argmin path; callers needing costs that
/// are bit-identical to a plain Dijkstra over the original graph refold
/// them over the unpacked path (ChExactPathCost) — float sums depend on
/// association order, so the winning path is re-accumulated exactly the
/// way the reference sweep would have.
class ChQuery {
 public:
  /// Queries `cache.index()` with planes from `cache`, which must outlive
  /// every call (not owned).
  explicit ChQuery(ChCustomizationCache& cache);

  /// Fetches the plane for `weights` from the cache if the current plane
  /// does not already match, building it on a miss (ChCustomizationCache::
  /// Get). The ETA window prices its planes this way.
  void EnsureCustomized(const ChClassWeights& weights);

  /// EnsureCustomized without the build (ChCustomizationCache::Lookup):
  /// returns false, keeping the current plane, when the cache has no
  /// published plane for `weights`. A derouting batch fetches its plane
  /// this way and answers a miss with Dijkstra.
  bool UsePublished(const ChClassWeights& weights);

  /// Builds the elimination-tree label space of `v` under the current
  /// customization (EnsureCustomized must have run; `v` must be in range):
  /// kForward prices v -> ancestor up-paths, kBackward ancestor -> v
  /// down-paths. False — `out` unusable — when the fill is not closed
  /// (ChProfileQuery::BuildSpace); callers then fall back to Dijkstra.
  bool BuildSpace(NodeId v, SweepDirection dir, ChSpace* out) {
    return profile_.BuildSpace(v, dir, out);
  }

  /// Cheapest customized connection of a forward and a backward space over
  /// their common elimination-tree suffix. Writes the meet's chain
  /// positions and returns kInfiniteCost when the spaces never connect.
  double MeetSpaces(const ChSpace& fwd, const ChSpace& bwd, uint32_t* fpos,
                    uint32_t* bpos) const {
    double dist = kInfiniteCost;
    profile_.MeetSpaces(fwd, bwd, {&dist, 1}, {fpos, 1}, {bpos, 1});
    return dist;
  }

  /// Unpacks the connection found by MeetSpaces into original EdgeIds in
  /// forward (fwd.source -> bwd.source) order. Empty when the sources
  /// coincide.
  void UnpackMeet(const ChSpace& fwd, uint32_t fpos, const ChSpace& bwd,
                  uint32_t bpos, std::vector<EdgeId>* out) {
    profile_.UnpackMeet(fwd, fpos, bwd, bpos, /*lane=*/0, out);
  }

  /// Customization sweeps THIS query's cache fetches ran (hits are not
  /// counted — summed over every query on one cache it equals the cache's
  /// builds()). Tests assert a stable query stream prices the hierarchy
  /// exactly once.
  size_t customizations() const { return customizations_; }

  /// The active plane (null before the first EnsureCustomized); shared so
  /// a ChProfileQuery can reuse it as one lane of a window.
  std::shared_ptr<const ChCustomization> plane() const { return plane_; }

  /// Mirrors customization sweeps onto `registry` as `ch.customizations`;
  /// null detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

  const ChIndex& index() const { return ch_; }

 private:
  /// Makes `plane` the active plane; `built` counts a customization.
  void Adopt(std::shared_ptr<const ChCustomization> plane, bool built);

  ChCustomizationCache& cache_;
  const ChIndex& ch_;

  // Active customization plane (shared, immutable), the one lane of
  // profile_.
  std::shared_ptr<const ChCustomization> plane_;
  ChProfileQuery profile_;
  size_t customizations_ = 0;
  obs::Counter* customizations_mirror_ = nullptr;
};

/// Exact congested cost of the shortest fwd.source -> bwd.source path (the
/// meet of the two spaces), folded over the unpacked original edges in the
/// accumulation order of the reference Dijkstra sweeps: a forward sweep
/// folds source-to-target, a backward (in-adjacency) sweep folds
/// target-side-first. `cost` must be the same functor the reference sweep
/// would use; `scratch` holds the unpacked edges between calls so a warm
/// call allocates nothing. Returns kInfiniteCost when the spaces never meet
/// and exactly 0.0 when the sources coincide.
double ChExactPathCost(ChQuery* query, const RoadNetwork& network,
                       const ChSpace& fwd, const ChSpace& bwd,
                       const EdgeCostFn& cost, SweepDirection fold,
                       std::vector<EdgeId>* scratch);

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_QUERY_H_
