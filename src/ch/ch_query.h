#ifndef ECOCHARGE_CH_CH_QUERY_H_
#define ECOCHARGE_CH_CH_QUERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "graph/shortest_path.h"

namespace ecocharge {

/// One pending shortcut/arc expansion step (packed ref + forward
/// orientation endpoints).
struct ChUnpackItem {
  uint32_t ref;  ///< packed ChIndex arc reference
  NodeId from;   ///< arc tail in forward orientation
  NodeId to;     ///< arc head
};

/// \brief One endpoint's elimination-tree label space under a query's
/// active plane.
///
/// `chain` lists the endpoint and its elimination-tree ancestors in
/// ascending rank; `dist[i]` is the cheapest up-graph (forward) or
/// reversed-down-graph (backward) climb cost from the source to
/// `chain[i]`, `pred_*` likewise. Spaces are self-contained, so several
/// can be alive at once — a derouting batch builds the vehicle and
/// return-point spaces once and meets every candidate charger's two small
/// spaces against them.
struct ChSpace {
  std::vector<NodeId> chain;
  std::vector<double> dist;
  std::vector<uint32_t> pred_arc;  ///< packed ref per position
  std::vector<uint32_t> pred_pos;  ///< predecessor chain index per position
  NodeId source = kInvalidNode;
  bool forward = true;
};

/// \brief Reusable elimination-tree query workspace over one ChIndex.
///
/// The hierarchy's topology is metric-independent; what a query needs per
/// class-weight vector is a ChCustomization *plane* (per-arc costs plus the
/// middle node realizing each shortcut). Planes come from the
/// ChCustomizationCache the query is built over — server workers all point
/// at one cache, so a congestion bucket is priced once per process instead
/// of once per worker. A query only reads planes already published there
/// (UsePublished) and swaps planes only when the weights actually change,
/// so a query stream at a fixed traffic bucket pays nothing.
///
/// A leg s -> t is the meet of s's forward and t's backward label space
/// (BuildSpace, MeetSpaces), unpacked into original edges (UnpackMeet).
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

  /// Makes the published plane for `weights` the active one
  /// (ChCustomizationCache::Lookup; no-op when it already is). Returns
  /// false, keeping the current plane, when the cache has none: a
  /// derouting batch then answers with Dijkstra.
  bool UsePublished(const ChClassWeights& weights);

  /// Builds the elimination-tree label space of `v` under the active plane
  /// (UsePublished must have succeeded; `v` must be in range): kForward
  /// prices v -> ancestor up-paths, kBackward ancestor -> v down-paths. No
  /// priority queue and no stall scans: ancestors are relaxed in chain
  /// order, which is topological for both climb directions. False — `out`
  /// unusable — when a relax target leaves the ancestor chain, i.e. the
  /// fill is not closed; callers then fall back to Dijkstra.
  bool BuildSpace(NodeId v, SweepDirection dir, ChSpace* out);

  /// Cheapest customized connection of a forward and a backward space over
  /// their common elimination-tree suffix (two root paths of a tree meet in
  /// exactly that suffix, and the peak of any shortest up-down path is a
  /// common ancestor). Writes the meet's chain positions and returns
  /// kInfiniteCost when the spaces never connect.
  double MeetSpaces(const ChSpace& fwd, const ChSpace& bwd, uint32_t* fpos,
                    uint32_t* bpos) const;

  /// Unpacks the connection found by MeetSpaces into original EdgeIds in
  /// forward (fwd.source -> bwd.source) order. Empty when the sources
  /// coincide.
  void UnpackMeet(const ChSpace& fwd, uint32_t fpos, const ChSpace& bwd,
                  uint32_t bpos, std::vector<EdgeId>* out);

  const ChIndex& index() const { return ch_; }

 private:
  static constexpr uint32_t kNoArcRef = 0xFFFFFFFFu;  ///< no predecessor

  void EnsureElimTree();

  ChCustomizationCache& cache_;
  const ChIndex& ch_;

  // Active customization plane (shared, immutable).
  std::shared_ptr<const ChCustomization> plane_;

  // Metric-independent elimination tree plus the chain-position stamps one
  // BuildSpace call uses to place relax targets.
  std::vector<NodeId> parent_;
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> pos_stamp_;
  uint32_t space_epoch_ = 0;

  std::vector<ChUnpackItem> unpack_stack_;
  std::vector<ChUnpackItem> path_items_;
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
