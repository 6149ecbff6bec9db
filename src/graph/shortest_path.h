#ifndef ECOCHARGE_GRAPH_SHORTEST_PATH_H_
#define ECOCHARGE_GRAPH_SHORTEST_PATH_H_

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "graph/road_network.h"

namespace ecocharge {

/// Sentinel for "unreachable".
inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// \brief Per-edge cost functor over the inlined CSR arc record (which
/// carries everything a cost can depend on: length and road class).
/// Defaults to geometric length; the traffic module supplies
/// time-dependent travel-time costs.
using EdgeCostFn = std::function<double(const Arc&)>;

/// Edge cost = length in meters.
double LengthCost(const Arc& a);

/// \brief A shortest path: total cost plus the node sequence.
struct PathResult {
  double cost = kInfiniteCost;
  std::vector<NodeId> nodes;  ///< empty when unreachable

  bool Reachable() const { return cost < kInfiniteCost; }
};

/// Which adjacency a sweep expands. A forward sweep from s settles
/// d(s -> v); a backward sweep over the in-adjacency from t settles
/// d(v -> t) — the return-leg direction of the derouting computation.
enum class SweepDirection : uint8_t { kForward, kBackward };

/// \brief Reusable Dijkstra workspace over one network.
///
/// Distances and parents are version-stamped so consecutive queries cost
/// O(visited) rather than O(V) to reset — the pattern the CkNN literature
/// uses for repeated searches from a moving query point.
class DijkstraSearch {
 public:
  explicit DijkstraSearch(const RoadNetwork& network);

  /// A* with a Euclidean-distance admissible heuristic (only valid for
  /// length costs, or time costs divided by max speed — the caller passes
  /// `heuristic_scale` = 1/max_speed for time costs, 1.0 for length).
  PathResult AStar(NodeId source, NodeId target,
                   const EdgeCostFn& cost = LengthCost,
                   double heuristic_scale = 1.0);

  /// Multi-target one-to-many: settles outward from `source` and stops as
  /// soon as every reachable node in `targets` is final (instead of
  /// settling a whole cost ball). Invalid target ids are ignored and
  /// duplicates are settled once. Returns the number of settled target
  /// entries (a duplicated id counts per occurrence); costs are read back
  /// with CostTo(). Equivalent to StartSweep({source}, kForward) followed
  /// by ExtendSweep(targets, cost).
  size_t OneToMany(NodeId source, std::span<const NodeId> targets,
                   const EdgeCostFn& cost);

  /// Begins a resumable multi-source sweep: every valid node in `sources`
  /// is seeded at cost 0 and the frontier is kept alive across
  /// ExtendSweep() calls, so later calls resume where earlier ones stopped
  /// instead of re-settling the inner ball. Starting a sweep invalidates
  /// the previous epoch's costs.
  void StartSweep(std::span<const NodeId> sources,
                  SweepDirection direction = SweepDirection::kForward);

  /// Extends the current sweep until every reachable node in `targets` is
  /// settled (or the frontier is exhausted). The same `cost` function must
  /// be passed to every extension of one sweep — the frontier carries
  /// priorities computed with it. Returns the number of targets with final
  /// costs (including ones settled by earlier extensions).
  size_t ExtendSweep(std::span<const NodeId> targets, const EdgeCostFn& cost);

  /// Cost to `v` in the current sweep (or the last AStar call): final once
  /// a sweep extension has settled `v`, tentative if `v` was only reached,
  /// and kInfiniteCost if it was not reached at all.
  double CostTo(NodeId v) const {
    return labels_[v].version == epoch_ ? labels_[v].dist : kInfiniteCost;
  }

  /// Nodes settled by the current sweep or the last AStar call (exposed
  /// for benchmarks).
  size_t last_settled_count() const { return last_settled_; }

 private:
  /// Frontier entry of the persistent sweep heap (kept as a member so a
  /// warm search performs zero heap allocations per query).
  struct SweepEntry {
    double priority;
    NodeId node;
  };
  static bool SweepLater(const SweepEntry& a, const SweepEntry& b) {
    return a.priority > b.priority;
  }

  void NewEpoch();
  std::vector<NodeId> ReconstructPath(NodeId source, NodeId target) const;

  /// Per-node search state — tentative distance, parent, and the epoch
  /// stamp that says whether either is current — packed into one 16-byte
  /// record so a relax touches a single cache line instead of three
  /// parallel arrays. The companion of the inlined Arc stream: at
  /// continental scale the label array is the other random-access stream
  /// of the relax loop.
  struct NodeLabel {
    double dist;
    NodeId parent;
    uint32_t version;
  };
  static_assert(sizeof(NodeLabel) == 16, "NodeLabel should stay one line");

  const RoadNetwork& network_;
  std::vector<NodeLabel> labels_;
  uint32_t epoch_ = 0;
  size_t last_settled_ = 0;

  // Resumable-sweep state. settled_version_ distinguishes "final" from
  // "reached with a tentative distance" across ExtendSweep calls;
  // target_version_ marks requested targets so pending-target counting
  // ignores duplicates. Both are epoch-stamped like version_.
  std::vector<SweepEntry> frontier_;
  std::vector<uint32_t> settled_version_;
  std::vector<uint32_t> target_version_;
  SweepDirection direction_ = SweepDirection::kForward;
};

/// \brief Bellman-Ford reference implementation (O(VE)); used by tests as
/// ground truth for Dijkstra/A*.
PathResult BellmanFordShortestPath(const RoadNetwork& network, NodeId source,
                                   NodeId target,
                                   const EdgeCostFn& cost = LengthCost);

}  // namespace ecocharge

#endif  // ECOCHARGE_GRAPH_SHORTEST_PATH_H_
