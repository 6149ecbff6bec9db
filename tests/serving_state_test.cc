// The state every OfferingServer worker shares when one server serves a
// fleet: the RCU world-version ring (WorldEpochs) and the cross-user
// corridor cache (CorridorCache).

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ecocharge.h"
#include "server/corridor_cache.h"
#include "server/world_epochs.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using testing_util::TablesBitIdentical;
using testing_util::TinyEnvironment;
using testing_util::TinyWorkload;

// ---------------------------------------------------------------------------
// WorldEpochs

TEST(WorldEpochsTest, PublishAdvancesRevisionsWithoutTouchingReaders) {
  WorldEpochs epochs(2);
  EXPECT_EQ(epochs.current_epoch(), 1u);
  {
    WorldEpochs::ReaderPin pin = epochs.Pin(0);
    uint64_t pinned = pin.snapshot().epoch;
    // Publishes land in other ring slots; the pinned snapshot's contents
    // must not move under the reader.
    epochs.Publish(10.0, [](WorldSnapshot* s) { ++s->revisions.weather; });
    epochs.Publish(20.0, [](WorldSnapshot* s) { ++s->revisions.traffic; });
    EXPECT_EQ(pin.snapshot().epoch, pinned);
    EXPECT_EQ(pin.snapshot().revisions.weather, 0u);
    EXPECT_EQ(epochs.current_epoch(), pinned + 2);
  }
  // Fresh pin sees the accumulated revisions (each publish copies the
  // previous snapshot forward).
  WorldEpochs::ReaderPin pin = epochs.Pin(1);
  EXPECT_EQ(pin.snapshot().revisions.weather, 1u);
  EXPECT_EQ(pin.snapshot().revisions.traffic, 1u);
  EXPECT_EQ(pin.snapshot().revisions.availability, 0u);
}

// Hammer the Dekker pin/publish protocol: each publish bumps exactly one
// revision, so every snapshot a reader ever pins must satisfy
// weather + availability + traffic == epoch - 1. A torn read (reader
// observing a slot mid-overwrite) would break the invariant.
TEST(WorldEpochsTest, ConcurrentPinsNeverObserveTornSnapshots) {
  constexpr size_t kReaders = 4;
  constexpr int kPublishes = 2000;
  WorldEpochs epochs(kReaders);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        WorldEpochs::ReaderPin pin = epochs.Pin(r);
        const WorldSnapshot& s = pin.snapshot();
        uint64_t sum = s.revisions.weather + s.revisions.availability +
                       s.revisions.traffic;
        if (sum != s.epoch - 1) violations.fetch_add(1);
        if (s.epoch > epochs.current_epoch()) violations.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kPublishes; ++i) {
    epochs.Publish(static_cast<SimTime>(i), [i](WorldSnapshot* s) {
      switch (i % 3) {
        case 0: ++s->revisions.weather; break;
        case 1: ++s->revisions.availability; break;
        default: ++s->revisions.traffic; break;
      }
    });
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(epochs.current_epoch(), 1u + kPublishes);
}

// ---------------------------------------------------------------------------
// CorridorCache

class CorridorCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = TinyEnvironment();
    ASSERT_NE(env_, nullptr);
    states_ = TinyWorkload(*env_, 6);
    ASSERT_GE(states_.size(), 2u);
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

// Two vehicles on the same corridor in the same ETA bucket share a key;
// trip identity must not leak into it, while position, k, bucket, and
// world revisions all must.
TEST_F(CorridorCacheTest, KeyCanonicalization) {
  CorridorCacheOptions options;
  options.eta_bucket_s = 300.0;
  CorridorCache cache(env_->dataset.network.get(), options);
  WorldRevisions revs;

  VehicleState a = states_[0];
  VehicleState b = a;
  b.trip_id = a.trip_id + 17;            // different vehicle
  b.segment_index = a.segment_index + 3;
  b.time = a.time + 120.0;               // same 5-minute bucket offset
  a.time = std::floor(a.time / 300.0) * 300.0 + 10.0;
  b.time = std::floor(a.time / 300.0) * 300.0 + 250.0;
  EXPECT_EQ(cache.KeyFor(a, 3, revs), cache.KeyFor(b, 3, revs));

  VehicleState later = a;
  later.time = a.time + 600.0;  // two buckets on
  EXPECT_NE(cache.KeyFor(a, 3, revs), cache.KeyFor(later, 3, revs));
  EXPECT_NE(cache.KeyFor(a, 3, revs), cache.KeyFor(a, 5, revs));

  WorldRevisions bumped = revs;
  ++bumped.weather;  // refresh publish re-keys the corridor
  EXPECT_NE(cache.KeyFor(a, 3, revs), cache.KeyFor(a, 3, bumped));

  // The canonical anchor zeroes trip identity and floors the bucket, so
  // both vehicles regenerate identical bytes on a miss.
  VehicleState ca = cache.CanonicalState(a);
  VehicleState cb = cache.CanonicalState(b);
  EXPECT_EQ(ca.trip_id, 0u);
  EXPECT_EQ(ca.segment_index, 0u);
  EXPECT_EQ(ca.time, cb.time);
  EXPECT_EQ(ca.position.x, cb.position.x);
  EXPECT_EQ(ca.position.y, cb.position.y);
}

TEST_F(CorridorCacheTest, HitReturnsBitIdenticalTableAndTtlExpires) {
  CorridorCacheOptions options;
  options.ttl_s = 100.0;
  CorridorCache cache(env_->dataset.network.get(), options);
  WorldRevisions revs;

  EcoChargeOptions fresh;
  fresh.use_dynamic_cache = false;
  EcoChargeRanker ranker(env_->estimator.get(), env_->charger_index.get(),
                         ScoreWeights::AWE(), fresh);
  const VehicleState& state = states_[0];
  uint64_t key = cache.KeyFor(state, 3, revs);
  OfferingTable table;
  EXPECT_FALSE(cache.GetInto(key, state.time, &table));
  table = ranker.Rank(cache.CanonicalState(state), 3);
  cache.Put(key, table, state.time);
  EXPECT_EQ(cache.inserts(), 1u);

  OfferingTable hit;
  ASSERT_TRUE(cache.GetInto(key, state.time + 1.0, &hit));
  EXPECT_TRUE(TablesBitIdentical(hit, table));

  // Pinned expiry boundary: age > ttl or time moving backwards is a miss.
  EXPECT_FALSE(cache.GetInto(key, state.time + 200.0, &hit));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.expirations, 1u);
}

// Options enter from flags and config: a bucket that is not a finite
// positive width, or a TTL shorter than the bucket, is rejected once at
// that boundary instead of reaching KeyFor's division.
TEST(CorridorCacheOptionsTest, ValidateRejectsBadBucketAndTtl) {
  EXPECT_TRUE(CorridorCacheOptions{}.Validate().ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bucket : {0.0, -60.0, nan, inf}) {
    CorridorCacheOptions options;
    options.eta_bucket_s = bucket;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument)
        << bucket;
  }
  for (double ttl : {60.0, nan, inf}) {
    CorridorCacheOptions options;
    options.eta_bucket_s = 300.0;
    options.ttl_s = ttl;
    EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument)
        << ttl;
  }
  CorridorCacheOptions equal;
  equal.eta_bucket_s = equal.ttl_s;
  EXPECT_TRUE(equal.Validate().ok());
}

}  // namespace
}  // namespace ecocharge
