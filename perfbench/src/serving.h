// Replays a workload's request stream from one closed-loop client.
//
// Untraced passes go through ecocharge::OfferingServer in inline mode
// (threads = 0): the same Submit path `serve` uses, with no queueing, so a
// request's latency is its service time and the answers are deterministic.
// Traced passes go through TracedServer, which makes the same public calls
// the inline server makes (OfferingService's ranker stages, CorridorCache,
// WorldEpochs) with spans around each and decorated spatial index and EIS
// below them. Both must serve byte-identical tables; the run checks it.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <vector>

#include "core/offering_table.h"
#include "obs/metrics.h"
#include "reference.h"
#include "tables.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

/// Which path served a request.
struct PathCounts {
  uint64_t fresh = 0;          ///< filter + score + refine
  uint64_t adapted = 0;        ///< Dynamic-Cache adaptation
  uint64_t corridor_hits = 0;  ///< copied out of the corridor cache
};

/// Per-pass outputs.
struct PassResult {
  TableLedger ledger;
  PathCounts paths;
  uint64_t requests = 0;
  /// First request to last, refreshes included, reference calls excluded.
  double wall_s = 0.0;
  /// Reference::TakeScale() over this pass: the factor that converts its
  /// times to nominal-host times.
  double scale = 1.0;
  uint64_t publishes = 0;      ///< world refreshes published
  uint64_t publish_ns = 0;     ///< time spent publishing them
};

/// Sampled served tables, kept for the Sustainability Score.
struct ServedSample {
  size_t every = 0;  ///< keep request i when i % every == 0 (0 = none)
  std::vector<ecocharge::VehicleState> states;
  std::vector<ecocharge::OfferingTable> tables;
};

/// Program counters the traced pass reads back from its registry.
struct RegistryTotals {
  uint64_t batch_ns = 0;
  uint64_t batches = 0;
  uint64_t batch_targets = 0;
  uint64_t warm_starts = 0;
  uint64_t customize_ns = 0;
  uint64_t customizations = 0;
  uint64_t plane_hits = 0;
  uint64_t plane_misses = 0;
  ecocharge::EisCallStats eis;
};

/// One pass through the real server, with `reference` calls interleaved
/// between requests. Writes request i's measured service time (ms) to
/// (*latencies_ms)[i], and keeps the sampled tables in `sample` when it is
/// non-null.
PassResult ServePass(Workload* w, Reference* reference,
                     std::vector<double>* latencies_ms, ServedSample* sample);

/// One traced pass through the span-instrumented mirror of the server;
/// otherwise as ServePass.
PassResult TracedPass(Workload* w, Reference* reference, Tracer* tracer,
                      RegistryTotals* totals,
                      std::vector<double>* latencies_ms);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
