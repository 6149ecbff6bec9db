#ifndef ECOCHARGE_CH_CONTRACTION_H_
#define ECOCHARGE_CH_CONTRACTION_H_

#include <cstdint>
#include <memory>

#include "ch/ch_index.h"
#include "common/result.h"
#include "graph/road_network.h"

namespace ecocharge {

/// \brief What the contraction did (checked by ChContractionTest).
struct ChBuildStats {
  uint64_t shortcuts = 0;  ///< triangle-closure arcs added
};

/// \brief Contracts `network` into a metric-independent ChIndex.
///
/// Node order nests a greedy heuristic inside a geometric nested
/// dissection. A recursive median bisection of the node coordinates
/// assigns every node the depth at which it joined a cell-boundary
/// separator; the lazy-update priority queue then orders by dissection
/// level first (deeper cells contract before the separators that enclose
/// them — the guarantee that keeps fill near-linear on planar-like road
/// networks) and by `2 * edge_difference + deleted_neighbors` within a
/// level. A popped node's priority is recomputed (one simulated
/// contraction) and the node reinserted when it no longer beats the queue
/// head; in near-clique separator remnants the edge difference is
/// approximated by the pair count so a pop stays sub-quadratic.
/// Contracting node x inserts one shortcut (a -> b) for every live in/out
/// neighbor pair not already adjacent, which keeps the arc set closed under
/// lower triangles. Shortcuts carry no static weight.
///
/// Nothing queries the result (exact derouting runs the Dijkstra sweeps);
/// perfbench's regional_ch setup contracts its network and snapshots the
/// hierarchy, and `ChContractionTest` checks the invariants above.
///
/// Deterministic: ties in the priority queue break on node id, and each CSR
/// row is emitted sorted by far endpoint (parallel originals by EdgeId).
Result<std::shared_ptr<ChIndex>> BuildChIndex(const RoadNetwork& network,
                                              ChBuildStats* stats = nullptr);

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CONTRACTION_H_
