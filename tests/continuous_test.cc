#include "core/continuous.h"

#include <gtest/gtest.h>

#include "core/ecocharge.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

class ContinuousTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment(60);
    ASSERT_NE(env_, nullptr);
    // Pick the longest trajectory for a meaningful trip.
    trip_ = &env_->dataset.trajectories.front();
    for (const Trajectory& t : env_->dataset.trajectories) {
      if (t.LengthMeters() > trip_->LengthMeters()) trip_ = &t;
    }
    weights_ = ScoreWeights::AWE();
    ranker_ = std::make_unique<EcoChargeRanker>(
        env_->estimator.get(), env_->charger_index.get(), weights_,
        EcoChargeOptions{});
  }

  std::unique_ptr<Environment> env_;
  const Trajectory* trip_ = nullptr;
  ScoreWeights weights_;
  std::unique_ptr<EcoChargeRanker> ranker_;
};

TEST_F(ContinuousTest, ProducesTablesAlongTheTrip) {
  ContinuousTripRunner runner(env_->dataset.network.get(), ranker_.get(),
                              ContinuousRunOptions{});
  TripRun run = runner.Run(*trip_);
  EXPECT_EQ(run.trip_id, trip_->object_id());
  EXPECT_FALSE(run.tables.empty());
  EXPECT_GT(run.total_compute_ms, 0.0);
  for (const OfferingTable& t : run.tables) {
    EXPECT_FALSE(t.empty());
  }
}

TEST_F(ContinuousTest, TablesAreTimeOrdered) {
  ContinuousTripRunner runner(env_->dataset.network.get(), ranker_.get(),
                              ContinuousRunOptions{});
  TripRun run = runner.Run(*trip_);
  for (size_t i = 1; i < run.tables.size(); ++i) {
    EXPECT_GE(run.tables[i].generated_at, run.tables[i - 1].generated_at);
  }
}

TEST_F(ContinuousTest, SmallerWindowMeansMoreTables) {
  ContinuousRunOptions coarse;
  coarse.recompute_window_s = 10.0 * 60.0;
  ContinuousRunOptions fine;
  fine.recompute_window_s = 60.0;
  ContinuousTripRunner coarse_runner(env_->dataset.network.get(),
                                     ranker_.get(), coarse);
  ContinuousTripRunner fine_runner(env_->dataset.network.get(), ranker_.get(),
                                   fine);
  size_t coarse_count = coarse_runner.Run(*trip_).tables.size();
  size_t fine_count = fine_runner.Run(*trip_).tables.size();
  EXPECT_GE(fine_count, coarse_count);
}

TEST_F(ContinuousTest, CacheAdaptationsHappen) {
  ContinuousRunOptions opts;
  opts.recompute_window_s = 60.0;  // dense recomputation inside segments
  ContinuousTripRunner runner(env_->dataset.network.get(), ranker_.get(),
                              opts);
  TripRun run = runner.Run(*trip_);
  EXPECT_GT(run.cache_adaptations, 0u);
  EXPECT_LT(run.cache_adaptations, run.tables.size());
}

TEST_F(ContinuousTest, CallbackSeesEveryTable) {
  ContinuousTripRunner runner(env_->dataset.network.get(), ranker_.get(),
                              ContinuousRunOptions{});
  size_t seen = 0;
  TripRun run = runner.Run(
      *trip_, [&](const VehicleState& state, const OfferingTable& table) {
        EXPECT_EQ(table.generated_at, state.time);
        ++seen;
      });
  EXPECT_EQ(seen, run.tables.size());
}

TEST_F(ContinuousTest, TopChangePositionsAreOnTheTrip) {
  ContinuousTripRunner runner(env_->dataset.network.get(), ranker_.get(),
                              ContinuousRunOptions{});
  TripRun run = runner.Run(*trip_);
  double length = trip_->AsPolyline().Length();
  for (double pos : run.top_change_positions_m) {
    EXPECT_GE(pos, 0.0);
    EXPECT_LE(pos, length + 1e-6);
  }
}

TEST_F(ContinuousTest, DegenerateTripYieldsNothing) {
  Trajectory stub(7, {{{0, 0}, 0.0}});
  ContinuousTripRunner runner(env_->dataset.network.get(), ranker_.get(),
                              ContinuousRunOptions{});
  TripRun run = runner.Run(stub);
  EXPECT_TRUE(run.tables.empty());
}

}  // namespace
}  // namespace ecocharge
