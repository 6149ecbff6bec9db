// The bound stage of CknnEcProcessor::Query (DESIGN.md §15) fetches and
// scores only the candidates whose score upper bounds can still reach a
// top-d. Its contract: the Offering Table and the Dynamic Cache's adapted
// table are bit-identical to the unpruned pipeline's. The differential
// test below holds it against the per-candidate oracle, which scores every
// candidate, over seeded random worlds with co-located twin chargers (key
// ties), the plain and the (fault-free) resilient EIS, degenerate and
// non-finite weights, k in {1, 3, 8, 20}, and refinement and intersection
// on and off. Constructed worlds put an exact bound on the threshold, and
// a coverage case holds the EIS's L ceiling against its forecasts.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/cknn_ec.h"
#include "resilience/resilient_information_server.h"
#include "spatial/index_factory.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using testing_util::TablesBitIdentical;

/// A tiny Oldenburg world whose fleet has co-located twins: a third of the
/// sites copy another site's node, type and PV capacity, so their L and D
/// intervals, and with A weighted 0 their scores, tie exactly.
struct TwinWorld {
  std::unique_ptr<Environment> env;
  std::vector<VehicleState> states;
};

TwinWorld MakeTwinWorld(uint64_t seed) {
  TwinWorld w;
  w.env = testing_util::TinyEnvironment(400, seed);
  EXPECT_NE(w.env, nullptr);
  std::vector<EvCharger>& fleet = w.env->chargers;
  Rng rng(seed * 7 + 1);
  for (size_t i = 0; i < fleet.size(); ++i) {
    if (rng.NextDouble() >= 1.0 / 3.0) continue;
    const EvCharger& twin = fleet[rng.NextBounded(fleet.size())];
    fleet[i].node = twin.node;
    fleet[i].position = twin.position;
    fleet[i].type = twin.type;
    fleet[i].pv_capacity_kw = twin.pv_capacity_kw;
  }
  std::vector<Point> points;
  for (const EvCharger& c : fleet) points.push_back(c.position);
  w.env->charger_index = MakeSpatialIndex(w.env->index_kind);
  w.env->charger_index->Build(std::move(points));
  w.states = testing_util::TinyWorkload(*w.env, 6);
  EXPECT_FALSE(w.states.empty());
  return w;
}

::testing::AssertionResult SameSelection(
    const std::vector<ScoredCandidate>& a,
    const std::vector<ScoredCandidate>& b) {
  OfferingTable ta;
  OfferingTable tb;
  for (const ScoredCandidate& c : a) ta.entries.push_back(c.Entry());
  for (const ScoredCandidate& c : b) tb.entries.push_back(c.Entry());
  return TablesBitIdentical(ta, tb);
}

TEST(BoundedQueryTest, PrunedTablesEqualUnprunedBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const ScoreWeights weight_sets[] = {
      ScoreWeights::AWE(), ScoreWeights::OSC(), ScoreWeights::OA(),
      ScoreWeights::ODC(), {0.0, 0.0, 0.0},     {0.5, 0.0, 0.5},
      {0.2, 0.5, 0.3},     {nan, 0.5, 0.5},     {inf, 0.0, 0.0},
      {0.5, inf, 0.5}};
  const size_t ks[] = {1, 3, 8, 20};
  obs::MetricsRegistry registry;
  size_t queries = 0;
  for (uint64_t seed : {3u, 17u}) {
    TwinWorld w = MakeTwinWorld(seed);
    // The second world runs over a fault-free resilient EIS, whose L
    // ceiling is the climatological one.
    resilience::ResilientInformationServer resilient(
        w.env->energy.get(), w.env->availability.get(),
        w.env->congestion.get());
    EcEstimator resilient_estimator(
        w.env->dataset.network, &w.env->chargers, w.env->energy.get(),
        w.env->availability.get(), w.env->congestion.get(),
        w.env->estimator->options(), &resilient);
    EcEstimator* estimator =
        seed == 3 ? w.env->estimator.get() : &resilient_estimator;
    for (bool refine : {true, false}) {
      for (bool intersect : {true, false}) {
        CknnEcOptions opts;
        opts.radius_m = 50000.0;
        opts.derouting_norm_m = 100000.0;
        opts.refine_exact_derouting = refine;
        opts.use_intersection = intersect;
        CknnEcOptions oracle_opts = opts;
        oracle_opts.use_simd = false;
        CknnEcProcessor bounded(estimator, w.env->charger_index.get(), opts);
        bounded.AttachMetrics(&registry);
        CknnEcProcessor oracle(estimator, w.env->charger_index.get(),
                               oracle_opts);
        QueryContext ctx;  // reused: the bound lanes carry capacity only
        for (const ScoreWeights& weights : weight_sets) {
          for (size_t k : ks) {
            for (const VehicleState& state : w.states) {
              OfferingTable got;
              OfferingTable want;
              std::vector<ScoredCandidate> got_adapted;
              std::vector<ScoredCandidate> want_adapted;
              QueryContext oracle_ctx;
              bounded.Query(state, k, weights, &ctx, &got.entries,
                            &got_adapted);
              oracle.Query(state, k, weights, &oracle_ctx, &want.entries,
                           &want_adapted);
              ASSERT_TRUE(TablesBitIdentical(got, want))
                  << "seed " << seed << " k " << k << " refine " << refine
                  << " intersect " << intersect << " weights "
                  << weights.w_level << "/" << weights.w_availability << "/"
                  << weights.w_derouting;
              ASSERT_TRUE(SameSelection(got_adapted, want_adapted))
                  << "adapted table, seed " << seed << " k " << k;
              // Without the Dynamic Cache the request runs one selection.
              bounded.Query(state, k, weights, &ctx, &got.entries);
              ASSERT_TRUE(TablesBitIdentical(got, want))
                  << "no cache, k " << k;
              ++queries;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(queries, 1000u);
  // The comparison is not vacuous: the bound stage dropped chargers
  // before any fetch (weights that keep every bound at the top, such as
  // A alone, prune nothing).
  const uint64_t bounded =
      registry.FindCounter("pipeline.candidates_bounded")->Value();
  const uint64_t scored =
      registry.FindCounter("pipeline.candidates_scored")->Value();
  EXPECT_GT(bounded, scored / 10);
}

/// An EIS with scripted L and A answers per charger id. Its L ceiling is
/// the charge rate over the window (any PV cap is far above it), so a
/// charger whose scripted max_kwh is that rate cap has an exact L bound,
/// and one below it a loose bound.
class ScriptedEis : public InformationServer {
 public:
  using InformationServer::InformationServer;

  std::vector<EnergyForecast> energy;
  std::vector<AvailabilityForecast> availability;

  void GetEnergyCeilingBatch(std::span<const SimTime> targets,
                             SimTime /*now*/, double /*window_s*/,
                             ForecastBatch* out) override {
    out->kwh_per_kwp.assign(targets.size(), 1e12);
  }

 protected:
  void ResolveWeather(std::span<const EvCharger* const> chargers,
                      std::span<const SimTime> /*targets*/, SimTime /*now*/,
                      double /*window_s*/, EnergyForecast* out,
                      EisFetch* /*fetch*/, std::span<SlotClaim> /*claims*/,
                      std::vector<SolarWindow>* /*windows*/) override {
    for (size_t i = 0; i < chargers.size(); ++i) {
      out[i] = energy[chargers[i]->id];
    }
  }
  void ResolveAvailability(std::span<const EvCharger* const> chargers,
                           std::span<const SimTime> /*targets*/,
                           SimTime /*now*/, AvailabilityForecast* out,
                           EisFetch* /*fetch*/,
                           std::span<SlotClaim> /*claims*/) override {
    for (size_t i = 0; i < chargers.size(); ++i) {
      out[i] = availability[chargers[i]->id];
    }
  }
};

TEST(BoundedQueryTest, ExactBoundsAtTheThresholdAreKept) {
  // Constructed worlds: every charger sits at one point, so D and the ETA
  // bucket are shared and only L decides the rankings (A is weighted 0).
  // Decoys (DC-150, no energy) and the loose chargers t1, t2 (DC-150,
  // some energy) lead by their bounds and are scored first. The AC-11
  // charger c has an exact bound, equal to its true score:
  //  - k = 1: c ties t2 (11 kWh each) and has the smaller id, so it is the
  //    answer; a prune that is not strict at the threshold loses it.
  //  - k = 2: c (11 kWh) ranks between t1 (22 kWh) and t2 (5 kWh), so
  //    the answer is {t1, c}; thresholds taken at depth d - 1 = 1 drop c.
  // Either mistake makes the table differ from the unpruned oracle's.
  std::unique_ptr<Environment> env = testing_util::TinyEnvironment(220, 5);
  ASSERT_NE(env, nullptr);
  std::vector<VehicleState> states = testing_util::TinyWorkload(*env, 1);
  ASSERT_FALSE(states.empty());
  VehicleState state = states.front();
  state.time = kSecondsPerDay + 12.0 * kSecondsPerHour;  // a June noon
  std::vector<EvCharger>& fleet = env->chargers;
  const Point site = state.position + Point{500.0, 0.0};
  for (EvCharger& c : fleet) {
    c.position = site;
    c.type = ChargerType::kDc150;
  }
  std::vector<Point> points(fleet.size(), site);
  env->charger_index = MakeSpatialIndex(env->index_kind);
  env->charger_index->Build(std::move(points));

  ScriptedEis eis(env->energy.get(), env->availability.get(),
                  env->congestion.get());
  eis.energy.assign(fleet.size(), EnergyForecast{0.0, 0.0});
  eis.availability.assign(fleet.size(), AvailabilityForecast{0.5, 0.5});
  EcEstimator estimator(env->dataset.network, &fleet, env->energy.get(),
                        env->availability.get(), env->congestion.get(),
                        env->estimator->options(), &eis);
  // The shares must not clamp: the L denominator of the arrival bucket
  // (the site is 500 m away) is above every scripted energy.
  ASSERT_GT(estimator.MaxFleetEnergyKwh(state.time, state.charge_window_s),
            22.0);
  ASSERT_EQ(EnergyCeilingKwh(fleet[0], 1e12, state.charge_window_s), 150.0);

  const ChargerId c = 40;
  const ChargerId t1 = 70;
  const ChargerId t2 = 90;
  fleet[c].type = ChargerType::kAc11;  // exact bound: 11 kWh scripted
  eis.energy[c] = {11.0, 11.0};
  // Twenty chargers whose 1 kWh PV ceiling keeps them out of every top-d:
  // the bound stage drops them unfetched.
  for (ChargerId id = 200; id < 220; ++id) {
    fleet[id].type = ChargerType::kAc11;
    fleet[id].pv_capacity_kw = 1e-12;
  }

  CknnEcOptions opts;
  opts.radius_m = 5000.0;
  opts.derouting_norm_m = 10000.0;
  opts.refine_exact_derouting = false;
  CknnEcOptions oracle_opts = opts;
  oracle_opts.use_simd = false;
  CknnEcProcessor bounded(&estimator, env->charger_index.get(), opts);
  obs::MetricsRegistry registry;
  bounded.AttachMetrics(&registry);
  CknnEcProcessor oracle(&estimator, env->charger_index.get(), oracle_opts);
  const ScoreWeights weights{0.5, 0.0, 0.5};
  struct Case {
    size_t k;
    double t1_kwh;
    double t2_kwh;
    std::vector<ChargerId> answer;
  };
  const Case cases[] = {{1, 0.0, 11.0, {c}}, {2, 22.0, 5.0, {t1, c}}};
  for (const Case& tc : cases) {
    eis.energy[t1] = {tc.t1_kwh, tc.t1_kwh};
    eis.energy[t2] = {tc.t2_kwh, tc.t2_kwh};
    QueryContext ctx;
    QueryContext oracle_ctx;
    OfferingTable got;
    OfferingTable want;
    bounded.Query(state, tc.k, weights, &ctx, &got.entries);
    oracle.Query(state, tc.k, weights, &oracle_ctx, &want.entries);
    std::vector<ChargerId> ids;
    for (const OfferingEntry& e : want.entries) ids.push_back(e.charger_id);
    EXPECT_EQ(ids, tc.answer) << "k " << tc.k;
    EXPECT_TRUE(TablesBitIdentical(got, want)) << "k " << tc.k;
  }
  EXPECT_EQ(registry.FindCounter("pipeline.candidates_bounded")->Value(),
            2 * 20u);
}

TEST(BoundedQueryTest, EnergyCeilingCoversEveryForecast) {
  // The plain EIS's L ceiling against the forecasts it bounds, bit for
  // bit: PV capacities drawn at random (the rounding of pv times a sum and
  // of a sum of pv terms differs per value), day and night targets, hour
  // and odd windows. No forecast's max_kwh may exceed its ceiling.
  std::unique_ptr<Environment> env = testing_util::TinyEnvironment(20, 9);
  ASSERT_NE(env, nullptr);
  InformationServer eis(env->energy.get(), env->availability.get(),
                        env->congestion.get());
  Rng rng(23);
  ForecastBatch ceilings;
  size_t rate_free = 0;
  for (int i = 0; i < 4000; ++i) {
    EvCharger c;
    c.id = static_cast<ChargerId>(i);  // the EIS caches per charger id
    c.type = ChargerType::kDc150;
    c.pv_capacity_kw = rng.NextDouble(1.0, 140.0);
    const SimTime now = rng.NextDouble(0.0, 3.0 * kSecondsPerDay);
    const SimTime target = now + rng.NextDouble(0.0, 4.0 * kSecondsPerHour);
    const double window_s = i % 2 == 0 ? 3600.0 : rng.NextDouble(60.0, 9000.0);
    const double max_kwh =
        eis.GetEnergyForecast(c, now, target, window_s).max_kwh;
    eis.GetEnergyCeilingBatch({&target, 1}, now, window_s, &ceilings);
    const double ceiling =
        EnergyCeilingKwh(c, ceilings.kwh_per_kwp[0], window_s);
    ASSERT_LE(max_kwh, ceiling) << "pv " << c.pv_capacity_kw << " window "
                                << window_s;
    rate_free += max_kwh > 0.0 && ceiling < c.RateKw() * window_s / 3600.0;
  }
  EXPECT_GT(rate_free, 1000u);  // the PV term, not the rate cap, bound most
}

}  // namespace
}  // namespace ecocharge
