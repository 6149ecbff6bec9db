#include "core/dynamic_cache.h"

namespace ecocharge {

DynamicCache::DynamicCache(const DynamicCacheOptions& options)
    : options_(options) {}

const std::vector<ScoredCandidate>* DynamicCache::TryReuse(
    const Point& position, SimTime now, size_t k) {
  if (Expired(now) || now < stored_at_ || k != k_ ||
      Distance(position, anchor_) > options_.q_distance_m) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &table_;
}

void DynamicCache::Store(const Point& position, SimTime now, size_t k,
                         const std::vector<ScoredCandidate>& table) {
  has_solution_ = true;
  anchor_ = position;
  stored_at_ = now;
  k_ = k;
  table_.assign(table.begin(), table.end());
}

void DynamicCache::Clear() {
  has_solution_ = false;
  table_.clear();
}

}  // namespace ecocharge
