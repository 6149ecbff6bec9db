#include "core/dynamic_cache.h"

namespace ecocharge {

DynamicCache::DynamicCache(const DynamicCacheOptions& options)
    : options_(options) {}

const std::vector<ScoredCandidate>* DynamicCache::TryReuse(
    const Point& position, SimTime now) {
  if (Expired(now) || now < stored_at_ ||
      Distance(position, anchor_) > options_.q_distance_m) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &candidates_;
}

void DynamicCache::Store(const Point& position, SimTime now,
                         const std::vector<ScoredCandidate>& candidates) {
  has_solution_ = true;
  anchor_ = position;
  stored_at_ = now;
  candidates_.assign(candidates.begin(), candidates.end());
}

void DynamicCache::Clear() {
  has_solution_ = false;
  candidates_.clear();
}

}  // namespace ecocharge
