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

constexpr size_t kK = 3;  // the k every table below is stored for

DynamicCacheOptions Opts(double q = 5000.0, double ttl = 900.0) {
  DynamicCacheOptions o;
  o.q_distance_m = q;
  o.ttl_s = ttl;
  return o;
}

TEST(DynamicCacheTest, ColdCacheMisses) {
  DynamicCache cache(Opts());
  EXPECT_EQ(cache.TryReuse({0, 0}, 0.0, kK), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(DynamicCacheTest, HitWithinQAndTtl) {
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, kK, Candidates({1, 2, 3}));
  const std::vector<ScoredCandidate>* candidates =
      cache.TryReuse({3000.0, 0.0}, 200.0, kK);
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(Ids(*candidates), (std::vector<ChargerId>{1, 2, 3}));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DynamicCacheTest, MissBeyondQ) {
  DynamicCache cache(Opts(5000.0));
  cache.Store({0, 0}, 100.0, kK, Candidates({1}));
  EXPECT_EQ(cache.TryReuse({5001.0, 0.0}, 100.0, kK), nullptr);
  // Exactly at Q still hits.
  EXPECT_NE(cache.TryReuse({5000.0, 0.0}, 100.0, kK), nullptr);
}

TEST(DynamicCacheTest, MissAfterTtl) {
  DynamicCache cache(Opts(5000.0, 900.0));
  EXPECT_TRUE(cache.Expired(0.0));  // no solution at all counts as expired
  cache.Store({0, 0}, 100.0, kK, Candidates({1}));
  EXPECT_FALSE(cache.Expired(1000.0));
  EXPECT_NE(cache.TryReuse({0, 0}, 1000.0, kK), nullptr);  // age 900 = ttl
  EXPECT_TRUE(cache.Expired(1000.1));
  EXPECT_EQ(cache.TryReuse({0, 0}, 1000.1, kK), nullptr);  // age > ttl
}

TEST(DynamicCacheTest, TimeTravelInvalidates) {
  // A query before the stored timestamp means the simulation restarted;
  // the cached solution belongs to a different epoch.
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 1000.0, kK, Candidates({1}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 500.0, kK), nullptr);
}

TEST(DynamicCacheTest, StoreReplacesSolution) {
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, kK, Candidates({1}));
  cache.Store({10000.0, 0.0}, 200.0, kK, Candidates({9}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 200.0, kK), nullptr);  // old anchor gone
  const auto* candidates = cache.TryReuse({10000.0, 0.0}, 200.0, kK);
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(candidates->front().charger_id, 9u);
}

TEST(DynamicCacheTest, ClearDropsSolution) {
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, kK, Candidates({1}));
  cache.Clear();
  EXPECT_EQ(cache.TryReuse({0, 0}, 100.0, kK), nullptr);
}

TEST(DynamicCacheTest, HitAtAnotherKMisses) {
  // A table adapted for k rows is not the table of another k: only the
  // stored k hits, and a mismatch counts as a miss.
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, 3, Candidates({1, 2, 3}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 110.0, 5), nullptr);
  EXPECT_EQ(cache.TryReuse({0, 0}, 110.0, 1), nullptr);
  EXPECT_EQ(cache.misses(), 2u);
  const std::vector<ScoredCandidate>* table = cache.TryReuse({0, 0}, 110.0, 3);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(Ids(*table), (std::vector<ChargerId>{1, 2, 3}));
  EXPECT_EQ(cache.hits(), 1u);
  // Regenerating at the new k replaces the table; the old k now misses.
  cache.Store({0, 0}, 120.0, 5, Candidates({4, 5, 6, 7, 8}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 130.0, 3), nullptr);
  EXPECT_NE(cache.TryReuse({0, 0}, 130.0, 5), nullptr);
}

TEST(DynamicCacheTest, KAgnosticFormsRoundTripAWholePool) {
  // The two-argument forms store and return a whole scored pool, which
  // their caller adapts itself; they never serve a k-keyed table.
  DynamicCache cache(Opts());
  cache.Store({0, 0}, 100.0, Candidates({1, 2, 3, 4}));
  const std::vector<ScoredCandidate>* pool = cache.TryReuse({0, 0}, 110.0);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(Ids(*pool), (std::vector<ChargerId>{1, 2, 3, 4}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 110.0, kK), nullptr);
  cache.Store({0, 0}, 120.0, kK, Candidates({1}));
  EXPECT_EQ(cache.TryReuse({0, 0}, 130.0), nullptr);
}

TEST(DynamicCacheTest, HitRateTracksCounters) {
  DynamicCache cache(Opts());
  cache.TryReuse({0, 0}, 0.0, kK);  // miss
  cache.Store({0, 0}, 0.0, kK, Candidates({1}));
  cache.TryReuse({0, 0}, 1.0, kK);  // hit
  cache.TryReuse({0, 0}, 2.0, kK);  // hit
  EXPECT_NEAR(cache.HitRate(), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace ecocharge
