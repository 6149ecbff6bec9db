#include "core/dynamic_cache.h"

#include <gtest/gtest.h>

namespace ecocharge {
namespace {

std::vector<ScoredCandidate> Candidates(std::vector<ChargerId> ids) {
  std::vector<ScoredCandidate> out;
  for (ChargerId id : ids) {
    ScoredCandidate c;
    c.charger_id = id;
    out.push_back(c);
  }
  return out;
}

std::vector<ChargerId> Ids(const std::vector<ScoredCandidate>& candidates) {
  std::vector<ChargerId> out;
  for (const ScoredCandidate& c : candidates) out.push_back(c.charger_id);
  return out;
}

DynamicCacheOptions Opts(double q = 5000.0, double ttl = 900.0) {
  DynamicCacheOptions o;
  o.q_distance_m = q;
  o.ttl_s = ttl;
  return o;
}

TEST(DynamicCacheTest, ColdCacheMisses) {
  DynamicCache cache(Opts());
  EXPECT_EQ(cache.TryReuse({0, 0}, 0.0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(DynamicCacheTest, HitWithinQAndTtl) {
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, Candidates({1, 2, 3}));
  const std::vector<ScoredCandidate>* candidates =
      cache.TryReuse({3000.0, 0.0}, 200.0);
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(Ids(*candidates), (std::vector<ChargerId>{1, 2, 3}));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DynamicCacheTest, MissBeyondQ) {
  DynamicCache cache(Opts(5000.0));
  cache.Store({0, 0}, 100.0, Candidates({1}));
  EXPECT_EQ(cache.TryReuse({5001.0, 0.0}, 100.0), nullptr);
  // Exactly at Q still hits.
  EXPECT_NE(cache.TryReuse({5000.0, 0.0}, 100.0), nullptr);
}

TEST(DynamicCacheTest, MissAfterTtl) {
  DynamicCache cache(Opts(5000.0, 900.0));
  EXPECT_TRUE(cache.Expired(0.0));  // no solution at all counts as expired
  cache.Store({0, 0}, 100.0, Candidates({1}));
  EXPECT_FALSE(cache.Expired(1000.0));
  EXPECT_NE(cache.TryReuse({0, 0}, 1000.0), nullptr);   // age 900 = ttl
  EXPECT_TRUE(cache.Expired(1000.1));
  EXPECT_EQ(cache.TryReuse({0, 0}, 1000.1), nullptr);   // age > ttl
}

TEST(DynamicCacheTest, TimeTravelInvalidates) {
  // A query before the stored timestamp means the simulation restarted;
  // the cached solution belongs to a different epoch.
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 1000.0, Candidates({1}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 500.0), nullptr);
}

TEST(DynamicCacheTest, StoreReplacesSolution) {
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, Candidates({1}));
  cache.Store({10000.0, 0.0}, 200.0, Candidates({9}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 200.0), nullptr);  // old anchor gone
  const auto* candidates = cache.TryReuse({10000.0, 0.0}, 200.0);
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(candidates->front().charger_id, 9u);
}

TEST(DynamicCacheTest, ClearDropsSolution) {
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, Candidates({1}));
  cache.Clear();
  EXPECT_EQ(cache.TryReuse({0, 0}, 100.0), nullptr);
}

TEST(DynamicCacheTest, HitRateTracksCounters) {
  DynamicCache cache(Opts());
  cache.TryReuse({0, 0}, 0.0);  // miss
  cache.Store({0, 0}, 0.0, Candidates({1}));
  cache.TryReuse({0, 0}, 1.0);  // hit
  cache.TryReuse({0, 0}, 2.0);  // hit
  EXPECT_NEAR(cache.HitRate(), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace ecocharge
