#ifndef ECOCHARGE_SERVER_OFFERING_SERVER_H_
#define ECOCHARGE_SERVER_OFFERING_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/environment.h"
#include "core/offering_service.h"
#include "core/protocol.h"
#include "obs/metrics.h"
#include "eis/world_revisions.h"
#include "resilience/resilient_information_server.h"
#include "server/bounded_queue.h"
#include "server/corridor_cache.h"
#include "server/world_epochs.h"

namespace ecocharge {

/// \brief Concurrency knobs of the serving runtime.
struct OfferingServerOptions {
  /// Worker threads. 0 = synchronous deterministic mode: Submit executes
  /// inline on the caller with no threads, no queues, and no locks taken
  /// on the hot path — bit-identical to the single-threaded pipeline, so
  /// tests and figure benches can route through the server unchanged.
  int threads = 0;

  /// Per-worker pending-request cap; a full queue rejects new submissions
  /// with kUnavailable (admission control) instead of buffering unboundedly.
  size_t queue_depth = 256;

  /// Shards of the EIS traffic cache (see EisOptions::cache_shards).
  size_t eis_cache_shards = 16;

  /// Per-client ranker state is dropped after this much idle sim time.
  double client_ttl_s = kSecondsPerHour;

  /// When > 0, each request handler blocks this long to emulate the
  /// upstream-fetch / response-write I/O of the real Mode-2 deployment
  /// (the Laravel/Nginx EIS talks to weather/traffic providers over HTTP).
  /// Lets the throughput bench exercise I/O overlap; 0 (the default)
  /// keeps request handling pure compute.
  double simulated_io_ms = 0.0;

  /// When true, the shared EIS is a ResilientInformationServer: upstream
  /// fetches go through the fault injector / retry / circuit-breaker /
  /// degradation stack configured by `resilience`. With the default
  /// (fault-free) resilience options the served tables are bit-identical
  /// to the undecorated server.
  bool resilient_eis = false;
  resilience::ResilienceOptions resilience;

  /// Virtual per-request deadline budget (milliseconds) that injected
  /// upstream latency and retry backoff are charged against when
  /// `resilient_eis` is on; <= 0 serves with an unbounded budget.
  double request_deadline_ms = 250.0;

  // --- Fleet-serving state (borrowed; null = stand-alone server). ---

  /// RCU world-version source. When set, every request pins the current
  /// snapshot (two atomic stores, no mutex) and serves under its
  /// revisions via ScopedWorldRevisions, so refresh publishes never stall
  /// the read path. Worker i pins reader slot i, so `epochs` needs at
  /// least max(1, threads) slots. The owner must outlive the server.
  WorldEpochs* epochs = nullptr;

  /// Cross-user corridor cache. When set, every request — table or wire —
  /// serves the canonical corridor table (hit: copy out; miss: rank the
  /// canonical anchor fresh and insert) instead of per-client Dynamic
  /// Caching, and the cache reports `server.corridor.*` on this server's
  /// registry until the server is destroyed. The owner must outlive the
  /// server.
  CorridorCache* corridor = nullptr;
};

/// \brief Counter snapshot of one server instance (plain values).
struct OfferingServerStats {
  uint64_t accepted = 0;   ///< submissions admitted to a queue (or inline)
  uint64_t rejected = 0;   ///< submissions refused: queue full or shut down
  uint64_t served = 0;     ///< requests fully processed (incl. malformed)
  uint64_t malformed = 0;  ///< wire requests that failed to decode
  uint64_t cache_adaptations = 0;  ///< tables served via Dynamic Caching
  uint64_t degraded_tables = 0;  ///< tables carrying a degradation flag
};

/// \brief The concurrent Offering Table serving runtime (the paper's
/// Fig. 4 Information Server under load).
///
/// A fixed pool of worker threads serves ranking requests from many
/// vehicles. Each worker owns a full single-threaded serving stack — an
/// EcEstimator (Dijkstra scratch, derouting memo, fleet-energy cache), an
/// OfferingService (per-client EcoCharge rankers + Dynamic Caches), and
/// one long-lived QueryContext — so the steady-state zero-allocation
/// property of the query pipeline holds per worker with no locking on the
/// compute path. Workers share exactly three things, each engineered for
/// concurrent reads: the immutable environment (network, chargers,
/// spatial index), the pure-function forecast services, and one
/// InformationServer whose column stores never hold their lock across an
/// upstream fetch and whose traffic cache is sharded.
///
/// Requests are routed to workers by client id hash, which gives every
/// client a stable worker and therefore FIFO processing of its own
/// requests — that per-client ordering, plus the purity of all shared
/// state, is why `threads = N` produces exactly the same Offering Tables
/// as `threads = 0` (asserted by tests/offering_server_test.cc). A whole
/// fleet is served by one server: with `epochs` and `corridor` set, all
/// workers share one world version ring and one corridor cache as well
/// (DESIGN.md §16). Each worker's queue is bounded: when it fills, Submit
/// returns kUnavailable immediately and the caller sheds load
/// (reject-with-status beats OOM).
///
/// Callbacks run on the worker thread that served the request (or inline
/// when threads = 0); they must be fast and must synchronize any state
/// they share with other threads.
class OfferingServer {
 public:
  using TableCallback = std::function<void(const OfferingTable&)>;
  using ReplyCallback = std::function<void(const Result<std::string>&)>;

  /// \param env fully built world (not owned; must outlive the server)
  OfferingServer(Environment* env, const ScoreWeights& weights,
                 const EcoChargeOptions& eco_options,
                 const OfferingServerOptions& options = {});
  ~OfferingServer();

  OfferingServer(const OfferingServer&) = delete;
  OfferingServer& operator=(const OfferingServer&) = delete;

  /// Enqueues a ranking request for `client_id`; `on_table` receives the
  /// Offering Table on the serving worker. Returns kUnavailable when the
  /// client's worker queue is full, kFailedPrecondition after Shutdown().
  Status Submit(uint64_t client_id, const VehicleState& state, size_t k,
                TableCallback on_table);

  /// Wire-protocol form: decodes an OfferingRequest on the worker, serves
  /// it like Submit, and hands `on_reply` the encoded Offering Table (or
  /// the decode error, counted as malformed).
  Status SubmitWire(uint64_t client_id, std::string wire,
                    ReplyCallback on_reply);

  /// Blocks until every accepted request has been served.
  void Drain();

  /// Drains, closes the queues, and joins the workers. Idempotent;
  /// further submissions are rejected. Called by the destructor.
  void Shutdown();

  /// Worker count (0 = synchronous inline mode).
  int threads() const { return threads_; }

  /// Counter snapshot; safe to call concurrently with traffic.
  OfferingServerStats Stats() const;

  /// The shared, sharded Information Server all workers account against.
  const InformationServer& information_server() const { return *shared_eis_; }

  /// The resilient EIS decorator, or null when `resilient_eis` is off.
  resilience::ResilientInformationServer* resilient_eis() {
    return resilient_eis_;
  }
  const resilience::ResilientInformationServer* resilient_eis() const {
    return resilient_eis_;
  }

  /// The server-owned metrics registry: request counters, queue-depth
  /// gauges, the end-to-end `server.request_latency_ns` histogram split
  /// into `server.queue_wait_ns` (submit to dequeue) and
  /// `server.service_ns` (dequeue to reply), plus
  /// everything the EIS, the estimators, and the query pipeline record
  /// (wired in the constructor, before any worker thread starts). Safe to
  /// snapshot concurrently with traffic — feed it to obs::StatszJson for
  /// the serving dashboard.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Request {
    uint64_t client_id = 0;
    bool is_wire = false;
    std::string wire;    // wire form
    VehicleState state;  // table form
    size_t k = 3;
    TableCallback on_table;
    ReplyCallback on_reply;
    /// Stamped at submission; the latency histogram spans queue wait +
    /// service time (what a vehicle actually experiences).
    std::chrono::steady_clock::time_point submitted_at{};
  };

  /// One worker's single-threaded serving stack. Only its owning thread
  /// (or the caller, in inline mode) ever touches estimator/service.
  struct Worker {
    size_t index = 0;  ///< position in workers_, = epoch reader offset
    std::unique_ptr<EcEstimator> estimator;
    std::unique_ptr<OfferingService> service;
    OfferingTable table;  ///< reusable reply buffer for the table path
    std::unique_ptr<BoundedQueue<Request>> queue;  // null in inline mode
    obs::Gauge* queue_depth = nullptr;  ///< server.queue.depth.w{i}
    std::thread thread;
  };

  size_t WorkerIndexFor(uint64_t client_id) const;
  Status SubmitRequest(Request request);
  void Serve(Worker& worker, Request& request);
  void ServeTable(Worker& worker, const VehicleState& state, size_t k,
                  uint64_t client_id, const WorldRevisions* revisions);
  void WorkerLoop(Worker& worker);
  void FinishOne();

  Environment* env_;
  int threads_;
  OfferingServerOptions options_;

  // Declared before the EIS and the workers so it is destroyed after them:
  // everything below records into registry-owned instruments until the
  // worker threads have joined.
  obs::MetricsRegistry metrics_;

  std::unique_ptr<InformationServer> shared_eis_;
  /// Downcast view of shared_eis_ when resilient_eis is on; null otherwise.
  resilience::ResilientInformationServer* resilient_eis_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> shutdown_{false};

  // Request accounting lives on the registry (sharded counters); these are
  // resolved handles, set once in the constructor. Stats() reads them back.
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* served_ = nullptr;
  obs::Counter* malformed_ = nullptr;
  obs::Counter* cache_adaptations_ = nullptr;
  obs::Counter* degraded_tables_ = nullptr;    ///< server.requests.degraded
  obs::Gauge* queue_depth_total_ = nullptr;    ///< server.queue.depth
  obs::Histogram* request_latency_ = nullptr;  ///< server.request_latency_ns
  obs::Histogram* queue_wait_ = nullptr;       ///< server.queue_wait_ns
  obs::Histogram* service_time_ = nullptr;     ///< server.service_ns

  // Drain(): waits until in-flight (accepted - served) reaches zero.
  std::atomic<uint64_t> in_flight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_SERVER_OFFERING_SERVER_H_
