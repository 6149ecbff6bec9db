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
/// never renumbers the others (1 was the R-tree, 2 the grid, 3 the
/// kd-tree).
enum class SpatialIndexKind {
  kQuadTree = 0,  ///< point-region quadtree (production; the paper's
                  ///< Index-Quadtree baseline)
  kLinear = 4,    ///< O(n) scan (the oracle the quadtree is checked by)
};

/// All selectable kinds, in the canonical (CLI/bench) order.
inline constexpr std::array<SpatialIndexKind, 2> kAllSpatialIndexKinds = {
    SpatialIndexKind::kQuadTree, SpatialIndexKind::kLinear};

/// Canonical flag spelling: "quadtree", "linear".
std::string_view SpatialIndexKindName(SpatialIndexKind kind);

/// Parses a flag value (case-insensitive, canonical spellings above).
Result<SpatialIndexKind> ParseSpatialIndexKind(std::string_view name);

/// Constructs an empty index of `kind` with its default tuning; call
/// Build() to populate it.
std::unique_ptr<SpatialIndex> MakeSpatialIndex(SpatialIndexKind kind);

}  // namespace ecocharge

#endif  // ECOCHARGE_SPATIAL_INDEX_FACTORY_H_
