#ifndef ECOCHARGE_SPATIAL_SPATIAL_INDEX_H_
#define ECOCHARGE_SPATIAL_SPATIAL_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"

namespace ecocharge {

/// \brief One kNN answer: the item's id and its distance to the query.
struct Neighbor {
  uint32_t id = 0;
  double distance = 0.0;

  bool operator==(const Neighbor& o) const {
    return id == o.id && distance == o.distance;
  }
};

/// \brief Reusable traversal scratch for index queries.
///
/// Every backend keeps its per-query working state (DFS stacks, best-first
/// frontiers, k-best heaps) in one of these instead of local vectors, so a
/// caller that reuses the scratch across queries reaches a steady state
/// with zero heap allocations per query. A default-constructed scratch is
/// always valid; the buffers grow to the high-water mark and stay.
struct IndexScratch {
  /// One best-first frontier entry: distance lower bound to a tree node.
  struct FrontierEntry {
    double distance = 0.0;
    uint32_t node = 0;
  };

  std::vector<uint32_t> stack;          ///< DFS node stack (range/box)
  std::vector<FrontierEntry> frontier;  ///< best-first min-heap (kNN)
  std::vector<Neighbor> best;           ///< k-best max-heap (kNN)
};

/// \brief Read-only kNN/range interface over a static set of points.
///
/// Items are identified by their index in the point vector handed to
/// Build(); payloads (chargers, graph nodes, ...) live outside the index.
/// All implementations return kNN results sorted ascending by distance with
/// ties broken by id, so results are comparable across index types in tests
/// — and, downstream, so the query pipeline produces bit-identical Offering
/// Tables no matter which backend retrieved the candidates.
///
/// Each query comes in two forms:
///  - an allocating convenience form returning a fresh vector, and
///  - a `...Into` form writing into a caller-owned output vector using a
///    caller-owned IndexScratch — the zero-allocation path the QueryContext
///    layer in src/core threads through the ranking pipeline.
///
/// Thread safety: after Build() the index is immutable; the const query
/// methods keep all per-query mutable state in the caller-owned scratch
/// and output vectors (no backend has `mutable` members), so any number of
/// threads may query one index concurrently as long as each brings its own
/// IndexScratch — exactly what the per-worker QueryContext provides.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// (Re)builds the index over `points`; ids are the vector positions.
  virtual void Build(std::vector<Point> points) = 0;

  /// Number of indexed points.
  virtual size_t size() const = 0;

  /// The k nearest items to `query` (fewer if the index holds fewer),
  /// written into `*out` (cleared first) sorted ascending by distance.
  virtual void KnnInto(const Point& query, size_t k, IndexScratch* scratch,
                       std::vector<Neighbor>* out) const = 0;

  /// All items within `radius` of `query`, written into `*out` (cleared
  /// first) sorted ascending by distance.
  virtual void RangeSearchInto(const Point& query, double radius,
                               IndexScratch* scratch,
                               std::vector<Neighbor>* out) const = 0;

  /// All item ids inside `box` (unordered), written into `*out`.
  virtual void BoxSearchInto(const BoundingBox& box, IndexScratch* scratch,
                             std::vector<uint32_t>* out) const = 0;

  /// Allocating convenience wrappers around the `...Into` forms.
  std::vector<Neighbor> Knn(const Point& query, size_t k) const;
  std::vector<Neighbor> RangeSearch(const Point& query, double radius) const;
  std::vector<uint32_t> BoxSearch(const BoundingBox& box) const;
};

namespace spatial_internal {

/// Canonical ordering shared by implementations: ascending distance, then id.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

/// Min-heap comparator for best-first frontiers (std heaps are max-heaps
/// w.r.t. the comparator, so "greater" puts the nearest node on top).
inline bool FrontierGreater(const IndexScratch::FrontierEntry& a,
                            const IndexScratch::FrontierEntry& b) {
  return a.distance > b.distance;
}

/// Offers `cand` to the k-best max-heap in `best` (worst element on top),
/// keeping at most k entries.
inline void OfferNeighbor(std::vector<Neighbor>* best, size_t k,
                          const Neighbor& cand) {
  if (best->size() < k) {
    best->push_back(cand);
    std::push_heap(best->begin(), best->end(), NeighborLess);
  } else if (NeighborLess(cand, best->front())) {
    std::pop_heap(best->begin(), best->end(), NeighborLess);
    best->back() = cand;
    std::push_heap(best->begin(), best->end(), NeighborLess);
  }
}

/// Moves the k-best heap into `out` in canonical ascending order.
inline void FinishKnn(const std::vector<Neighbor>& best,
                      std::vector<Neighbor>* out) {
  out->assign(best.begin(), best.end());
  std::sort(out->begin(), out->end(), NeighborLess);
}

}  // namespace spatial_internal

}  // namespace ecocharge

#endif  // ECOCHARGE_SPATIAL_SPATIAL_INDEX_H_
