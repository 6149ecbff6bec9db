#ifndef ECOCHARGE_SPATIAL_INDEX_FACTORY_H_
#define ECOCHARGE_SPATIAL_INDEX_FACTORY_H_

#include <array>
#include <memory>
#include <string_view>

#include "common/result.h"
#include "spatial/spatial_index.h"

namespace ecocharge {

/// \brief The candidate-retrieval backends the query pipeline can run on.
///
/// The CkNN-EC pipeline programs against SpatialIndex, so any backend can
/// drive any ranker; the kind only selects which concrete structure holds
/// the charger positions. Values are explicit so that retiring a kind
/// never renumbers the others (3 was the kd-tree).
enum class SpatialIndexKind {
  kQuadTree = 0,  ///< point-region quadtree (the paper's baseline index)
  kRTree = 1,     ///< STR-packed R-tree
  kGrid = 2,      ///< uniform grid
  kLinear = 4,    ///< O(n) scan (reference backend)
};

/// All selectable kinds, in the canonical (CLI/bench) order.
inline constexpr std::array<SpatialIndexKind, 4> kAllSpatialIndexKinds = {
    SpatialIndexKind::kQuadTree, SpatialIndexKind::kRTree,
    SpatialIndexKind::kGrid, SpatialIndexKind::kLinear};

/// Canonical flag spelling: "quadtree", "rtree", "grid", "linear".
std::string_view SpatialIndexKindName(SpatialIndexKind kind);

/// Parses a flag value (case-insensitive, canonical spellings above).
Result<SpatialIndexKind> ParseSpatialIndexKind(std::string_view name);

/// Constructs an empty index of `kind` with its default tuning; call
/// Build() to populate it.
std::unique_ptr<SpatialIndex> MakeSpatialIndex(SpatialIndexKind kind);

}  // namespace ecocharge

#endif  // ECOCHARGE_SPATIAL_INDEX_FACTORY_H_
