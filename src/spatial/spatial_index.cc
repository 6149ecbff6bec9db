#include "spatial/spatial_index.h"

#include <algorithm>

namespace ecocharge {

std::vector<Neighbor> SpatialIndex::Knn(const Point& query, size_t k) const {
  IndexScratch scratch;
  std::vector<Neighbor> out;
  KnnInto(query, k, &scratch, &out);
  return out;
}

std::vector<Neighbor> SpatialIndex::RangeSearch(const Point& query,
                                                double radius) const {
  IndexScratch scratch;
  std::vector<Neighbor> out;
  RangeSearchInto(query, radius, &scratch, &out);
  std::sort(out.begin(), out.end(), spatial_internal::NeighborLess);
  return out;
}

std::vector<uint32_t> SpatialIndex::BoxSearch(const BoundingBox& box) const {
  IndexScratch scratch;
  std::vector<uint32_t> out;
  BoxSearchInto(box, &scratch, &out);
  return out;
}

}  // namespace ecocharge
