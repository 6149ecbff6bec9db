#ifndef ECOCHARGE_CH_CH_QUERY_H_
#define ECOCHARGE_CH_CH_QUERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "graph/shortest_path.h"

namespace ecocharge {

/// \brief One endpoint's elimination-tree label space.
///
/// `chain` lists the endpoint and its elimination-tree ancestors in
/// ascending rank; `dist[i]` / `pred_*[i]` describe the cheapest up-graph
/// (forward) or reversed-down-graph (backward) path from the endpoint to
/// `chain[i]` under the active customization. Spaces are position-indexed
/// and self-contained, so several can be alive at once — a derouting batch
/// builds the vehicle and return-point spaces once and meets every
/// candidate charger's two small spaces against them.
struct ChSpace {
  std::vector<NodeId> chain;
  std::vector<double> dist;
  std::vector<uint32_t> pred_arc;  ///< packed ChIndex ref; kNoArcRef at seed
  std::vector<uint32_t> pred_pos;  ///< chain index of the predecessor
  NodeId source = kInvalidNode;
  bool forward = true;
};

/// \brief Reusable bidirectional up/down query workspace over one ChIndex.
///
/// The hierarchy's topology is metric-independent; what a query needs per
/// class-weight vector is a ChCustomization *plane* (per-arc costs plus the
/// middle node realizing each shortcut). Planes come from the
/// ChCustomizationCache the query is built over — server workers all point
/// at one cache, so a congestion bucket is priced once per process instead
/// of once per worker. Search() swaps planes only when the weights actually
/// change, so a query stream at a fixed traffic bucket pays nothing.
///
/// Search(): upward Dijkstra from s over UpArcs and downward Dijkstra from
/// t over DownArcs with stall-on-demand, meeting at the hierarchy peak.
/// Labels are epoch-stamped like DijkstraSearch, so a warm query allocates
/// nothing and costs O(visited) to reset.
///
/// The customized costs pick the argmin path; callers needing costs that
/// are bit-identical to a plain Dijkstra over the original graph recompute
/// them over the unpacked original-edge path (ChExactPathCost) — float sums
/// depend on association order, so the winning path is re-accumulated
/// exactly the way the reference sweep would have.
class ChQuery {
 public:
  /// Sentinel arc reference marking a search seed / original-arc leaf.
  static constexpr uint32_t kNoArcRef = 0xFFFFFFFFu;

  /// Queries `cache.index()` with planes from `cache`, which must outlive
  /// every call (not owned).
  explicit ChQuery(ChCustomizationCache& cache);

  /// Fetches the plane for `weights` from the cache if the current plane
  /// does not already match. Search() calls this implicitly.
  void EnsureCustomized(const ChClassWeights& weights);

  /// Shortest up-down distance s -> t under `weights`; kInfiniteCost when
  /// unreachable, exactly 0.0 when s == t. Out-of-range ids are
  /// unreachable. Keeps meeting state for UnpackPath().
  double Search(NodeId s, NodeId t, const ChClassWeights& weights);

  /// Appends the last successful Search()'s path as original EdgeIds in
  /// forward (s -> t) order. Empty for s == t. Must not be called after an
  /// unreachable Search.
  void UnpackPath(std::vector<EdgeId>* out);

  /// Builds the elimination-tree label space of `v` under the current
  /// customization (EnsureCustomized must have run; `v` must be in range).
  /// kForward prices v -> ancestor up-paths, kBackward ancestor -> v
  /// down-paths. No priority queue and no stall scans: ancestors are
  /// relaxed in chain order, which is topological for both climb
  /// directions. Returns false — leaving `out` unusable — if an arc ever
  /// leaves the ancestor chain, i.e. the index was not built by a
  /// contraction whose fill is closed over the arcs it kept; callers fall
  /// back to Search() in that case.
  bool BuildSpace(NodeId v, SweepDirection dir, ChSpace* out);

  /// Cheapest customized connection of a forward and a backward space over
  /// their common elimination-tree suffix. Writes the meet's chain
  /// positions and returns kInfiniteCost when the spaces never connect.
  double MeetSpaces(const ChSpace& fwd, const ChSpace& bwd, uint32_t* fpos,
                    uint32_t* bpos) const;

  /// Unpacks the connection found by MeetSpaces into original EdgeIds in
  /// forward (fwd.source -> bwd.source) order. Empty when the sources
  /// coincide.
  void UnpackMeet(const ChSpace& fwd, uint32_t fpos, const ChSpace& bwd,
                  uint32_t bpos, std::vector<EdgeId>* out);

  /// Heap pops of the last Search (exposed for benchmarks).
  size_t last_settled() const { return last_settled_; }

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
  struct Label {
    double dist;
    uint32_t parent_arc;  // packed ChIndex ref of the relaxed arc
    NodeId parent_node;   // node the arc was relaxed from
    uint32_t version;
  };

  struct HeapEntry {
    double priority;
    NodeId node;
  };
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    return a.priority > b.priority;
  }

  void EnsureElimTree();

  double CwByRef(uint32_t ref) const {
    return (ref & ChIndex::kDownBit) != 0
               ? cw_down_[ref & ~ChIndex::kDownBit]
               : cw_up_[ref];
  }

  ChCustomizationCache& cache_;
  const ChIndex& ch_;

  // Active customization plane (shared, immutable) plus its hot-path raw
  // views.
  std::shared_ptr<const ChCustomization> plane_;
  const double* cw_up_ = nullptr;
  const double* cw_down_ = nullptr;
  size_t customizations_ = 0;
  obs::Counter* customizations_mirror_ = nullptr;

  std::vector<Label> flabel_;
  std::vector<Label> blabel_;
  std::vector<uint32_t> fsettled_;
  std::vector<uint32_t> bsettled_;
  std::vector<HeapEntry> fheap_;
  std::vector<HeapEntry> bheap_;
  std::vector<ChUnpackItem> unpack_stack_;
  std::vector<ChUnpackItem> path_items_;
  uint32_t epoch_ = 0;
  size_t last_settled_ = 0;

  // Elimination tree (built lazily, metric-independent) and the chain
  // position scratch BuildSpace stamps per call.
  std::vector<NodeId> parent_;
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> pos_stamp_;
  uint32_t space_epoch_ = 0;

  // Meeting state of the last Search.
  NodeId last_s_ = kInvalidNode;
  NodeId last_t_ = kInvalidNode;
  NodeId meet_ = kInvalidNode;
};

/// Exact congested cost of the shortest s -> t path, folded over the
/// unpacked original edges in the accumulation order of the reference
/// Dijkstra sweeps: a forward sweep folds source-to-target, a backward
/// (in-adjacency) sweep folds target-side-first. `cost` must be the same
/// functor the reference sweep would use; `scratch` holds the unpacked
/// edges between calls so a warm call allocates nothing. Returns
/// kInfiniteCost when unreachable and exactly 0.0 when s == t.
double ChExactPathCost(ChQuery* query, const RoadNetwork& network, NodeId s,
                       NodeId t, const ChClassWeights& weights,
                       const EdgeCostFn& cost, SweepDirection fold,
                       std::vector<EdgeId>* scratch);

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_QUERY_H_
