// Batched-derouting speedup gate: the refinement phase's ExactBatch (one
// multi-target forward sweep + one shared backward sweep per query) against
// the per-candidate baseline (one point-to-point search pair per charger),
// swept over batch size x query states.
//
// The binary asserts the batched path's contract and exits 1 when it breaks:
//   1. bit-identical estimates between ExactBatch and N x Exact;
//   2. the batched path is >= 2x faster once the batch holds >= 16 targets,
//      and its forward sweeps settle at most kMaxSettledShareAt16 of the
//      nodes the per-candidate searches settle (a timing-free floor);
//   3. ExactBatch, which prices one ClassFactors per cost time, is
//      bit-identical to and >= 2x faster than the same sweeps driven by a
//      per-arc ActualSpeedFactor cost, on a refine_limit-sized batch.
// Report-only beside the forward columns: the nodes ExactBatch's backward
// extension settles, what that extension costs on its own per pass, and
// the price per settled node of each leg's sweep timed on its own. Those
// leg timings rotate through the workload's query states, a fresh group
// per round, so no round replays sweeps the branch predictor just learned.
// Timing uses interleaved min-of-rounds (see bench_micro_obs.cc for why).
// Results are emitted as BENCH_derouting.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <numeric>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "core/cknn_ec.h"
#include "traffic/derouting.h"

namespace ecocharge {
namespace {

constexpr double kMinSpeedupAt16 = 2.0;
/// Settled-node share of the batched forward sweeps over the per-candidate
/// ones, at >= 16 targets.
constexpr double kMaxSettledShareAt16 = 0.25;
constexpr double kMinPricingSpeedup = 2.0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool SameBits(const DeroutingEstimate& a, const DeroutingEstimate& b) {
  return std::memcmp(&a.extra_distance_min_m, &b.extra_distance_min_m,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.extra_distance_max_m, &b.extra_distance_max_m,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.eta_s, &b.eta_s, sizeof(double)) == 0;
}

/// `n` refinement candidates around `position`: every 4th of the 4n
/// nearest chargers (by Euclidean distance, the filtering phase's order).
/// The stride models the pipeline's selection — refinement candidates are
/// the score winners of the whole filter radius, not the n geometrically
/// nearest, so they spread across the candidate ball rather than packing
/// into its center.
std::vector<ChargerRef> RefinementCandidates(
    const std::vector<EvCharger>& fleet, const Point& position, size_t n) {
  std::vector<uint32_t> order(fleet.size());
  std::iota(order.begin(), order.end(), 0);
  const size_t pool = std::min(4 * n, fleet.size());
  std::partial_sort(order.begin(), order.begin() + pool, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      return Distance(position, fleet[a].position) <
                             Distance(position, fleet[b].position);
                    });
  const size_t stride = std::max<size_t>(pool / std::max<size_t>(n, 1), 1);
  std::vector<ChargerRef> refs;
  refs.reserve(n);
  for (size_t i = 0; i < pool && refs.size() < n; i += stride) {
    refs.push_back(&fleet[order[i]]);
  }
  return refs;
}

/// ExactBatch's sweeps with a cost lambda that calls the congestion model
/// on every arc relaxation — the pricing ExactBatch replaced with one
/// ClassFactors per cost time. It keeps the same backward-sweep memo, so
/// both sides run the same searches. Cost time is the query's `now`.
class PerArcBatch {
 public:
  PerArcBatch(const RoadNetwork& network, const CongestionModel& congestion)
      : congestion_(congestion), forward_(network), backward_(network) {}

  void Run(const DeroutingQuery& q, std::span<const ChargerRef> chargers,
           std::vector<DeroutingEstimate>* out) {
    const SimTime tau = q.now;
    auto cost = [this, tau](const Arc& e) {
      return e.length_m / congestion_.ActualSpeedFactor(e.road_class, tau);
    };
    targets_.clear();
    for (ChargerRef c : chargers) targets_.push_back(c->node);
    forward_.OneToMany(q.vehicle_node, std::span<const NodeId>(targets_),
                       cost);
    if (q.return_node_a != ra_ || q.return_node_b != rb_ || tau != tau_) {
      NodeId sources[2] = {q.return_node_a, q.return_node_b};
      backward_.StartSweep(std::span<const NodeId>(sources, 2),
                           SweepDirection::kBackward);
      ra_ = q.return_node_a;
      rb_ = q.return_node_b;
      tau_ = tau;
    }
    targets_.push_back(q.vehicle_node);
    backward_.ExtendSweep(std::span<const NodeId>(targets_), cost);
    const double direct = backward_.CostTo(q.vehicle_node);
    const double cruise = std::max(
        FreeFlowSpeed(RoadClass::kArterial) *
            congestion_.ActualSpeedFactor(RoadClass::kArterial, tau),
        1.0);
    out->clear();
    for (ChargerRef c : chargers) {
      DeroutingEstimate est;
      const double to_b = forward_.CostTo(c->node);
      if (!std::isfinite(to_b)) {
        est.extra_distance_min_m = est.extra_distance_max_m = kInfiniteCost;
        est.eta_s = kInfiniteCost;
        out->push_back(est);
        continue;
      }
      const double back = backward_.CostTo(c->node);
      const double extra = to_b + (std::isfinite(back) ? back : 0.0) -
                           (std::isfinite(direct) ? direct : 0.0);
      est.extra_distance_min_m = est.extra_distance_max_m =
          std::max(0.0, extra);
      est.eta_s = to_b / cruise;
      out->push_back(est);
    }
  }

 private:
  const CongestionModel& congestion_;
  DijkstraSearch forward_;
  DijkstraSearch backward_;
  std::vector<NodeId> targets_;
  NodeId ra_ = kInvalidNode;
  NodeId rb_ = kInvalidNode;
  SimTime tau_ = -1.0;
};

/// ExactBatch's two sweeps on their own, priced with one ClassFactors like
/// ExactBatch: the forward multi-target sweep from the vehicle node to
/// every charger, and a cold multi-source backward sweep from the return
/// pair to every charger and the vehicle node. Each returns the nodes it
/// settled, so a timed pass yields a price per settled node.
class LegSweeps {
 public:
  LegSweeps(const RoadNetwork& network, const CongestionModel& congestion)
      : congestion_(congestion), search_(network) {}

  size_t Forward(const DeroutingQuery& q,
                 std::span<const ChargerRef> chargers) {
    const ClassFactors factors = congestion_.ActualFactors(q.now);
    auto cost = [&factors](const Arc& e) { return factors.Cost(e); };
    targets_.clear();
    for (ChargerRef c : chargers) targets_.push_back(c->node);
    search_.OneToMany(q.vehicle_node, std::span<const NodeId>(targets_),
                      cost);
    return search_.last_settled_count();
  }

  size_t Backward(const DeroutingQuery& q,
                  std::span<const ChargerRef> chargers) {
    const ClassFactors factors = congestion_.ActualFactors(q.now);
    auto cost = [&factors](const Arc& e) { return factors.Cost(e); };
    targets_.clear();
    for (ChargerRef c : chargers) targets_.push_back(c->node);
    targets_.push_back(q.vehicle_node);
    NodeId sources[2] = {q.return_node_a, q.return_node_b};
    search_.StartSweep(std::span<const NodeId>(sources, 2),
                       SweepDirection::kBackward);
    search_.ExtendSweep(std::span<const NodeId>(targets_), cost);
    return search_.last_settled_count();
  }

 private:
  const CongestionModel& congestion_;
  DijkstraSearch search_;
  std::vector<NodeId> targets_;
};

int Main(int argc, char** argv) {
  bench::BenchConfig cfg = bench::BenchConfig::FromArgs(argc, argv);
  bench::PreparedWorld world = bench::Prepare(DatasetKind::kOldenburg, cfg);
  const std::vector<EvCharger>& fleet = world.env->chargers;
  EcEstimator& estimator = *world.env->estimator;

  const size_t num_states = std::min<size_t>(4, world.states.size());
  // Queries for every state: the first num_states drive the gated passes,
  // and the leg timings rotate through all of them.
  std::vector<DeroutingQuery> queries;
  for (const VehicleState& state : world.states) {
    queries.push_back(estimator.MakeDeroutingQuery(state));
  }

  // Independent services for the two paths so neither benefits from the
  // other's warmed backward sweep; both share the network and traffic.
  DeroutingService per_candidate(world.env->dataset.network,
                                 world.env->congestion.get());
  DeroutingService batched(world.env->dataset.network,
                           world.env->congestion.get());
  DeroutingBatchScratch scratch;
  std::vector<DeroutingEstimate> batch_out;

  bench::BenchJsonWriter json;
  LegSweeps legs(*world.env->dataset.network, *world.env->congestion);
  TableWriter tw({"targets", "per-candidate us", "batched us", "speedup",
                  "per-candidate fwd settled", "batched fwd settled",
                  "batched bwd settled", "bwd us", "fwd ns/settle",
                  "bwd ns/settle"});
  bool ok = true;

  const size_t batch_sizes[] = {4, 16, 48};
  const int kRounds = cfg.repetitions > 1 ? 7 : 3;
  for (size_t n : batch_sizes) {
    if (n > fleet.size()) continue;
    std::vector<std::vector<ChargerRef>> candidates;
    for (const VehicleState& state : world.states) {
      candidates.push_back(RefinementCandidates(fleet, state.position, n));
    }

    // Parity first: a batch must be exactly N per-candidate calls fused.
    // The outbound legs are where the two differ in work: one multi-target
    // sweep against one single-target search per candidate (the backward
    // sweep is memoized on both sides).
    size_t compared = 0;
    uint64_t batched_settled = 0;
    uint64_t batched_backward_settled = 0;
    uint64_t per_candidate_settled = 0;
    for (size_t s = 0; s < num_states; ++s) {
      scratch.Reserve(n);
      batched.ExactBatch(queries[s], candidates[s], &scratch, &batch_out);
      batched_settled += batched.last_forward_settled();
      batched_backward_settled += batched.last_backward_settled();
      for (size_t i = 0; i < candidates[s].size(); ++i) {
        DeroutingEstimate exact =
            per_candidate.Exact(queries[s], *candidates[s][i]);
        per_candidate_settled += per_candidate.last_forward_settled();
        if (!SameBits(exact, batch_out[i])) {
          std::cerr << "FAIL: estimate mismatch at state " << s
                    << " candidate " << i << " (batch size " << n << ")\n";
          ok = false;
        }
        ++compared;
      }
    }

    // Interleaved min-of-rounds over the full (states x candidates) pass.
    uint64_t per_candidate_ns = UINT64_MAX;
    uint64_t batched_ns = UINT64_MAX;
    for (int round = 0; round < kRounds; ++round) {
      for (int side = 0; side < 2; ++side) {
        const bool run_batch = (round + side) % 2 == 1;
        const uint64_t start = NowNs();
        for (size_t s = 0; s < num_states; ++s) {
          if (run_batch) {
            batched.ExactBatch(queries[s], candidates[s], &scratch,
                               &batch_out);
          } else {
            for (ChargerRef c : candidates[s]) {
              per_candidate.Exact(queries[s], *c);
            }
          }
        }
        const uint64_t elapsed = NowNs() - start;
        uint64_t& best = run_batch ? batched_ns : per_candidate_ns;
        best = std::min(best, elapsed);
      }
    }

    // Each leg's sweeps alone, min-of-rounds. Round r times the next group
    // of num_states states after the gated ones, wrapping around the
    // workload; each round's settled count turns its time into a price per
    // settled node.
    uint64_t leg_ns[2] = {UINT64_MAX, UINT64_MAX};  // [0] forward, [1] bwd
    double leg_ns_per_settle[2] = {HUGE_VAL, HUGE_VAL};
    for (int leg = 0; leg < 2; ++leg) {
      for (int round = 0; round < kRounds; ++round) {
        size_t settled = 0;
        const uint64_t start = NowNs();
        for (size_t s = 0; s < num_states; ++s) {
          const size_t i = (num_states * (round + 1) + s) % queries.size();
          settled += leg == 0 ? legs.Forward(queries[i], candidates[i])
                              : legs.Backward(queries[i], candidates[i]);
        }
        const uint64_t elapsed = NowNs() - start;
        leg_ns[leg] = std::min(leg_ns[leg], elapsed);
        leg_ns_per_settle[leg] = std::min(
            leg_ns_per_settle[leg],
            static_cast<double>(elapsed) /
                static_cast<double>(std::max<size_t>(settled, 1)));
      }
    }
    const uint64_t forward_ns = leg_ns[0];
    const uint64_t backward_ns = leg_ns[1];
    const double forward_ns_per_settle = leg_ns_per_settle[0];
    const double backward_ns_per_settle = leg_ns_per_settle[1];

    const double speedup = static_cast<double>(per_candidate_ns) /
                           static_cast<double>(std::max<uint64_t>(
                               batched_ns, 1));
    const double settled_share =
        static_cast<double>(batched_settled) /
        static_cast<double>(std::max<uint64_t>(per_candidate_settled, 1));
    tw.AddRow({std::to_string(n),
               TableWriter::Fmt(per_candidate_ns / 1e3, 1),
               TableWriter::Fmt(batched_ns / 1e3, 1),
               TableWriter::Fmt(speedup, 2) + "x",
               std::to_string(per_candidate_settled),
               std::to_string(batched_settled),
               std::to_string(batched_backward_settled),
               TableWriter::Fmt(backward_ns / 1e3, 1),
               TableWriter::Fmt(forward_ns_per_settle, 1),
               TableWriter::Fmt(backward_ns_per_settle, 1)});
    json.BeginRecord();
    json.Str("mode", "batch_vs_per_candidate");
    json.Num("targets", static_cast<double>(n));
    json.Num("states", static_cast<double>(num_states));
    json.Num("estimates_compared", static_cast<double>(compared));
    json.Num("per_candidate_ns", static_cast<double>(per_candidate_ns));
    json.Num("batched_ns", static_cast<double>(batched_ns));
    json.Num("speedup", speedup);
    json.Num("per_candidate_settled",
             static_cast<double>(per_candidate_settled));
    json.Num("batched_settled", static_cast<double>(batched_settled));
    json.Num("batched_backward_settled",
             static_cast<double>(batched_backward_settled));
    json.Num("backward_ns", static_cast<double>(backward_ns));
    json.Num("forward_ns", static_cast<double>(forward_ns));
    json.Num("forward_ns_per_settle", forward_ns_per_settle);
    json.Num("backward_ns_per_settle", backward_ns_per_settle);
    if (n >= 16 && speedup < kMinSpeedupAt16) {
      std::cerr << "FAIL: batched refinement only " << speedup
                << "x faster at " << n << " targets (floor "
                << kMinSpeedupAt16 << "x)\n";
      ok = false;
    }
    if (n >= 16 && settled_share > kMaxSettledShareAt16) {
      std::cerr << "FAIL: batched forward sweeps settle " << batched_settled
                << " nodes, " << settled_share << " of the per-candidate "
                << per_candidate_settled << " at " << n
                << " targets (ceiling " << kMaxSettledShareAt16 << ")\n";
      ok = false;
    }
  }

  std::cout << "bench_micro_derouting: " << num_states << " query states, "
            << fleet.size() << " chargers, min of " << kRounds
            << " interleaved rounds\n\n";
  tw.RenderText(std::cout);

  // Pricing: a refinement batch (refine_limit candidates per state) through
  // ExactBatch against the same sweeps priced per arc. Each timed pass
  // cycles the states several times so a pass outlasts timer noise.
  {
    const size_t n = std::min(CknnEcOptions{}.refine_limit, fleet.size());
    std::vector<std::vector<ChargerRef>> candidates;
    for (size_t s = 0; s < num_states; ++s) {
      candidates.push_back(
          RefinementCandidates(fleet, world.states[s].position, n));
    }
    PerArcBatch per_arc(*world.env->dataset.network,
                        *world.env->congestion);
    std::vector<DeroutingEstimate> per_arc_out;
    size_t compared = 0;
    for (size_t s = 0; s < num_states; ++s) {
      batched.ExactBatch(queries[s], candidates[s], &scratch, &batch_out);
      per_arc.Run(queries[s], candidates[s], &per_arc_out);
      for (size_t i = 0; i < candidates[s].size(); ++i) {
        if (!SameBits(per_arc_out[i], batch_out[i])) {
          std::cerr << "FAIL: per-arc pricing mismatch at state " << s
                    << " candidate " << i << "\n";
          ok = false;
        }
        ++compared;
      }
    }
    const int kPasses = 8;
    uint64_t per_arc_ns = UINT64_MAX;
    uint64_t factors_ns = UINT64_MAX;
    for (int round = 0; round < kRounds; ++round) {
      for (int side = 0; side < 2; ++side) {
        const bool run_factors = (round + side) % 2 == 1;
        const uint64_t start = NowNs();
        for (int pass = 0; pass < kPasses; ++pass) {
          for (size_t s = 0; s < num_states; ++s) {
            if (run_factors) {
              batched.ExactBatch(queries[s], candidates[s], &scratch,
                                 &batch_out);
            } else {
              per_arc.Run(queries[s], candidates[s], &per_arc_out);
            }
          }
        }
        const uint64_t elapsed = NowNs() - start;
        uint64_t& best = run_factors ? factors_ns : per_arc_ns;
        best = std::min(best, elapsed);
      }
    }
    const double speedup =
        static_cast<double>(per_arc_ns) /
        static_cast<double>(std::max<uint64_t>(factors_ns, 1));
    const double batches = static_cast<double>(kPasses * num_states);
    std::cout << "\npricing (" << n << " targets, " << num_states
              << " states): per-arc model "
              << TableWriter::Fmt(per_arc_ns / 1e3 / batches, 1)
              << " us/batch, ClassFactors "
              << TableWriter::Fmt(factors_ns / 1e3 / batches, 1)
              << " us/batch (" << TableWriter::Fmt(speedup, 2) << "x)\n";
    json.BeginRecord();
    json.Str("mode", "class_factors_vs_per_arc");
    json.Num("targets", static_cast<double>(n));
    json.Num("states", static_cast<double>(num_states));
    json.Num("estimates_compared", static_cast<double>(compared));
    json.Num("per_arc_ns", static_cast<double>(per_arc_ns));
    json.Num("class_factors_ns", static_cast<double>(factors_ns));
    json.Num("speedup", speedup);
    if (speedup < kMinPricingSpeedup) {
      std::cerr << "FAIL: ClassFactors pricing only " << speedup
                << "x faster than per-arc pricing (floor "
                << kMinPricingSpeedup << "x)\n";
      ok = false;
    }
  }

  if (!json.WriteFile("BENCH_derouting.json")) {
    std::cerr << "failed to write BENCH_derouting.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_derouting.json (" << json.num_records()
            << " records)\n";
  if (!ok) return 1;
  std::cout << "PASS: batched refinement bit-identical and >= "
            << kMinSpeedupAt16 << "x at >= 16 targets, ClassFactors pricing "
            << "bit-identical and >= " << kMinPricingSpeedup << "x\n";
  return 0;
}

}  // namespace
}  // namespace ecocharge

int main(int argc, char** argv) { return ecocharge::Main(argc, argv); }
