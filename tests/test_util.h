#ifndef ECOCHARGE_TESTS_TEST_UTIL_H_
#define ECOCHARGE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/environment.h"
#include "core/offering_table.h"
#include "core/workload.h"
#include "geo/point.h"

namespace ecocharge {
namespace testing_util {

/// Uniform random point cloud in [0, w] x [0, h].
inline std::vector<Point> RandomCloud(size_t n, double w = 10000.0,
                                      double h = 8000.0, uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.NextDouble(0.0, w), rng.NextDouble(0.0, h)});
  }
  return points;
}

/// A small but fully functional world for integration-style tests: the
/// Oldenburg dataset at minimum scale with `num_chargers` sites.
inline std::unique_ptr<Environment> TinyEnvironment(size_t num_chargers = 60,
                                                    uint64_t seed = 42) {
  EnvironmentOptions opts;
  opts.kind = DatasetKind::kOldenburg;
  opts.dataset_scale = 0.003;  // minimum trajectory count
  opts.num_chargers = num_chargers;
  opts.max_derouting_m = 60000.0;
  opts.seed = seed;
  auto result = MakeEnvironment(opts);
  if (!result.ok()) return nullptr;
  return std::move(result).MoveValueUnsafe();
}

/// A handful of vehicle states drawn from `env`'s trajectories.
inline std::vector<VehicleState> TinyWorkload(const Environment& env,
                                              size_t max_states = 6) {
  WorkloadOptions wo;
  wo.max_trips = 4;
  wo.max_states = max_states;
  return BuildWorkload(env.dataset, wo);
}

/// Bit-identical Offering Table comparison (no tolerance): every field of
/// every entry must match exactly. Used by the cross-index parity and
/// QueryContext-reuse tests, where "same result" means same bits.
inline ::testing::AssertionResult TablesBitIdentical(const OfferingTable& a,
                                                     const OfferingTable& b) {
  if (a.generated_at != b.generated_at || a.segment_index != b.segment_index ||
      a.location.x != b.location.x || a.location.y != b.location.y ||
      a.adapted_from_cache != b.adapted_from_cache ||
      a.degraded != b.degraded) {
    return ::testing::AssertionFailure() << "table headers differ";
  }
  if (a.entries.size() != b.entries.size()) {
    return ::testing::AssertionFailure()
           << "entry counts differ: " << a.entries.size() << " vs "
           << b.entries.size();
  }
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const OfferingEntry& x = a.entries[i];
    const OfferingEntry& y = b.entries[i];
    if (x.charger_id != y.charger_id) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": charger " << x.charger_id << " vs "
             << y.charger_id;
    }
    // Compared as bits: NaN scores must match too, and -0.0 is not +0.0.
    auto same = [](double u, double v) {
      return std::bit_cast<uint64_t>(u) == std::bit_cast<uint64_t>(v);
    };
    auto same_interval = [&same](const Interval& u, const Interval& v) {
      return same(u.lo, v.lo) && same(u.hi, v.hi);
    };
    if (!same(x.score.sc_min, y.score.sc_min) ||
        !same(x.score.sc_max, y.score.sc_max) ||
        !same_interval(x.ecs.level, y.ecs.level) ||
        !same_interval(x.ecs.availability, y.ecs.availability) ||
        !same_interval(x.ecs.derouting, y.ecs.derouting) ||
        !same(x.ecs.eta_s, y.ecs.eta_s) ||
        x.ecs.degraded != y.ecs.degraded || !same(x.eta_s, y.eta_s)) {
      return ::testing::AssertionFailure()
             << "entry " << i << " (charger " << x.charger_id
             << "): score/EC fields differ";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing_util
}  // namespace ecocharge

#endif  // ECOCHARGE_TESTS_TEST_UTIL_H_
