#include "spatial/linear_scan.h"

#include <utility>

namespace ecocharge {

void LinearScanIndex::Build(std::vector<Point> points) {
  points_ = std::move(points);
}

void LinearScanIndex::KnnInto(const Point& query, size_t k,
                              IndexScratch* scratch,
                              std::vector<Neighbor>* out) const {
  out->clear();
  if (points_.empty() || k == 0) return;
  auto& best = scratch->best;
  best.clear();
  for (size_t i = 0; i < points_.size(); ++i) {
    spatial_internal::OfferNeighbor(
        &best, k, {static_cast<uint32_t>(i), Distance(points_[i], query)});
  }
  spatial_internal::FinishKnn(best, out);
}

void LinearScanIndex::RangeSearchInto(const Point& query, double radius,
                                      IndexScratch* /*scratch*/,
                                      std::vector<Neighbor>* out) const {
  out->clear();
  for (size_t i = 0; i < points_.size(); ++i) {
    double d = Distance(points_[i], query);
    if (d <= radius) out->push_back({static_cast<uint32_t>(i), d});
  }
}

void LinearScanIndex::BoxSearchInto(const BoundingBox& box,
                                    IndexScratch* /*scratch*/,
                                    std::vector<uint32_t>* out) const {
  out->clear();
  for (size_t i = 0; i < points_.size(); ++i) {
    if (box.Contains(points_[i])) out->push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace ecocharge
