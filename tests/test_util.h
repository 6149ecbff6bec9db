#ifndef ECOCHARGE_TESTS_TEST_UTIL_H_
#define ECOCHARGE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ch/ch_customize.h"
#include "common/rng.h"
#include "core/environment.h"
#include "core/offering_table.h"
#include "core/workload.h"
#include "geo/point.h"
#include "graph/generators.h"
#include "traffic/congestion.h"
#include "traffic/derouting.h"

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

/// The contraction-hierarchy suites' graph: a small random geometric
/// network.
inline std::shared_ptr<RoadNetwork> SmallRgg(uint64_t seed,
                                             size_t nodes = 300) {
  RandomGeometricOptions opts;
  opts.num_nodes = nodes;
  opts.k_nearest = 3;
  opts.seed = seed;
  return MakeRandomGeometric(opts).MoveValueUnsafe();
}

/// The CH class-weight vector the exact derouting metric realizes at
/// `tau` (multipliers, one per RoadClass).
inline ChClassWeights CongestedWeights(const CongestionModel& congestion,
                                       SimTime tau) {
  ChClassWeights w;
  for (int c = 0; c < kChNumClasses; ++c) {
    w.w[c] = 1.0 / congestion.ActualSpeedFactor(static_cast<RoadClass>(c), tau);
  }
  return w;
}

/// Prices, through the cache's always-build Get, the CH plane that an
/// exact derouting batch of `env` at `now` reads, so the batch runs on the
/// hierarchy instead of the Dijkstra fallback.
inline void WarmChPlane(Environment& env, SimTime now) {
  env.ch_cache->Get(CongestedWeights(*env.congestion, now));
}

/// A refinement batch over a network of at least 121 nodes: the vehicle at
/// node 1, the return points at nodes 50 and 120, a charger on every 17th
/// node.
struct ChargerBatch {
  std::vector<EvCharger> chargers;
  std::vector<ChargerRef> refs;
  DeroutingQuery query;
};

inline ChargerBatch MakeChargerBatch(const RoadNetwork& network, SimTime now) {
  ChargerBatch batch;
  for (NodeId v = 3; v < network.NumNodes(); v += 17) {
    EvCharger charger;
    charger.node = v;
    charger.position = network.NodePosition(v);
    batch.chargers.push_back(charger);
  }
  for (const EvCharger& c : batch.chargers) batch.refs.push_back(&c);
  batch.query.vehicle_node = 1;
  batch.query.vehicle_position = network.NodePosition(1);
  batch.query.return_node_a = 50;
  batch.query.return_point_a = network.NodePosition(50);
  batch.query.return_node_b = 120;
  batch.query.return_point_b = network.NodePosition(120);
  batch.query.now = now;
  return batch;
}

/// memcmp equality of two estimate vectors.
inline ::testing::AssertionResult EstimatesSameBits(
    const std::vector<DeroutingEstimate>& a,
    const std::vector<DeroutingEstimate>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "sizes";
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(DeroutingEstimate)) != 0) {
      return ::testing::AssertionFailure() << "estimate " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// A small but fully functional world for integration-style tests: the
/// Oldenburg dataset at minimum scale with `num_chargers` sites.
inline std::unique_ptr<Environment> TinyEnvironment(
    size_t num_chargers = 60, uint64_t seed = 42,
    DeroutingBackend backend = DeroutingBackend::kExact) {
  EnvironmentOptions opts;
  opts.kind = DatasetKind::kOldenburg;
  opts.dataset_scale = 0.003;  // minimum trajectory count
  opts.num_chargers = num_chargers;
  opts.max_derouting_m = 60000.0;
  opts.seed = seed;
  opts.derouting_backend = backend;
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
    if (x.score.sc_min != y.score.sc_min || x.score.sc_max != y.score.sc_max ||
        !(x.ecs.level == y.ecs.level) ||
        !(x.ecs.availability == y.ecs.availability) ||
        !(x.ecs.derouting == y.ecs.derouting) || x.ecs.eta_s != y.ecs.eta_s ||
        x.ecs.degraded != y.ecs.degraded || x.eta_s != y.eta_s) {
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
