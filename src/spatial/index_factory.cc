#include "spatial/index_factory.h"

#include <cctype>
#include <string>

#include "spatial/linear_scan.h"
#include "spatial/quadtree.h"

namespace ecocharge {

std::string_view SpatialIndexKindName(SpatialIndexKind kind) {
  switch (kind) {
    case SpatialIndexKind::kQuadTree:
      return "quadtree";
    case SpatialIndexKind::kLinear:
      return "linear";
  }
  return "unknown";
}

Result<SpatialIndexKind> ParseSpatialIndexKind(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == '_') continue;  // accept "quad-tree", "quad_tree"
    lower.push_back(static_cast<char>(std::tolower(c)));
  }
  for (SpatialIndexKind kind : kAllSpatialIndexKinds) {
    if (lower == SpatialIndexKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown spatial index '" +
                                 std::string(name) + "' (quadtree|linear)");
}

std::unique_ptr<SpatialIndex> MakeSpatialIndex(SpatialIndexKind kind) {
  switch (kind) {
    case SpatialIndexKind::kQuadTree:
      return std::make_unique<QuadTree>();
    case SpatialIndexKind::kLinear:
      return std::make_unique<LinearScanIndex>();
  }
  return nullptr;
}

}  // namespace ecocharge
