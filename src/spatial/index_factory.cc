#include "spatial/index_factory.h"

#include <cctype>
#include <string>

#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"
#include "spatial/quadtree.h"
#include "spatial/rtree.h"

namespace ecocharge {

std::string_view SpatialIndexKindName(SpatialIndexKind kind) {
  switch (kind) {
    case SpatialIndexKind::kQuadTree:
      return "quadtree";
    case SpatialIndexKind::kRTree:
      return "rtree";
    case SpatialIndexKind::kGrid:
      return "grid";
    case SpatialIndexKind::kLinear:
      return "linear";
  }
  return "unknown";
}

Result<SpatialIndexKind> ParseSpatialIndexKind(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == '_') continue;  // accept "quad-tree", "r_tree", ...
    lower.push_back(static_cast<char>(std::tolower(c)));
  }
  for (SpatialIndexKind kind : kAllSpatialIndexKinds) {
    if (lower == SpatialIndexKindName(kind)) return kind;
  }
  return Status::InvalidArgument(
      "unknown spatial index '" + std::string(name) +
      "' (quadtree|rtree|grid|linear)");
}

std::unique_ptr<SpatialIndex> MakeSpatialIndex(SpatialIndexKind kind) {
  switch (kind) {
    case SpatialIndexKind::kQuadTree:
      return std::make_unique<QuadTree>();
    case SpatialIndexKind::kRTree:
      return std::make_unique<RTree>();
    case SpatialIndexKind::kGrid:
      return std::make_unique<GridIndex>();
    case SpatialIndexKind::kLinear:
      return std::make_unique<LinearScanIndex>();
  }
  return nullptr;
}

}  // namespace ecocharge
