#include "core/continuous.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace ecocharge {

ContinuousTripRunner::ContinuousTripRunner(const RoadNetwork* network,
                                           Ranker* ranker,
                                           const ContinuousRunOptions& options)
    : network_(network), ranker_(ranker), options_(options) {}

TripRun ContinuousTripRunner::Run(
    const Trajectory& trip,
    const std::function<void(const VehicleState&, const OfferingTable&)>&
        on_table) {
  TripRun run;
  run.trip_id = trip.object_id();
  if (trip.size() < 2) return run;

  // Base recomputation points: one vehicle state per segment boundary.
  std::vector<VehicleState> states =
      TripStates(*network_, trip, options_.segment_length_m,
                 options_.charge_window_s);
  if (states.empty()) return run;

  // Densify with wall-clock recomputation points: if a segment takes
  // longer than the recompute window to traverse, insert intermediate
  // states at window multiples (same segment context, advanced position).
  std::vector<VehicleState> schedule;
  for (size_t i = 0; i < states.size(); ++i) {
    schedule.push_back(states[i]);
    SimTime seg_end_time =
        i + 1 < states.size() ? states[i + 1].time : trip.EndTime();
    SimTime t = states[i].time + options_.recompute_window_s;
    while (t < seg_end_time) {
      VehicleState mid = states[i];
      mid.time = t;
      mid.position = trip.PositionAt(t);
      mid.node = network_->NearestNode(mid.position);
      schedule.push_back(mid);
      t += options_.recompute_window_s;
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const VehicleState& a, const VehicleState& b) {
              return a.time < b.time;
            });

  ranker_->Reset();
  Polyline path = trip.AsPolyline();
  ChargerId previous_top = static_cast<ChargerId>(-1);
  bool have_top = false;
  // One context reused across the trip keeps the timed region
  // allocation-free once the buffers are warm; the tables themselves are
  // part of the run's result, so each is ranked into a fresh one.
  QueryContext ctx;
  for (const VehicleState& state : schedule) {
    Stopwatch timer;
    OfferingTable table;
    ranker_->RankInto(state, options_.k, ctx, &table);
    run.total_compute_ms += timer.ElapsedMillis();
    if (table.adapted_from_cache) ++run.cache_adaptations;
    if (!table.empty()) {
      if (have_top && table.top().charger_id != previous_top) {
        run.top_change_positions_m.push_back(path.Project(state.position));
      }
      previous_top = table.top().charger_id;
      have_top = true;
    }
    if (on_table) on_table(state, table);
    run.tables.push_back(std::move(table));
  }
  return run;
}

}  // namespace ecocharge
