#include "server/offering_server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "core/protocol.h"

namespace ecocharge {

OfferingServer::OfferingServer(Environment* env, const ScoreWeights& weights,
                               const EcoChargeOptions& eco_options,
                               const OfferingServerOptions& options)
    : env_(env),
      threads_(std::max(0, options.threads)),
      options_(options),
      cache_options_(eco_options.cache_options()) {
  if (options_.resilient_eis) {
    auto resilient = std::make_unique<resilience::ResilientInformationServer>(
        env_->energy.get(), env_->availability.get(), env_->congestion.get(),
        EisOptions{}, options_.resilience);
    resilient_eis_ = resilient.get();
    shared_eis_ = std::move(resilient);
  } else {
    shared_eis_ = std::make_unique<InformationServer>(
        env_->energy.get(), env_->availability.get(), env_->congestion.get());
  }

  // All instrument registration happens here, before any worker thread
  // exists: the hot path only ever touches pre-resolved handles.
  accepted_ = metrics_.GetCounter("server.requests.accepted", "requests");
  rejected_ = metrics_.GetCounter("server.requests.rejected", "requests");
  served_ = metrics_.GetCounter("server.requests.served", "requests");
  malformed_ = metrics_.GetCounter("server.requests.malformed", "requests");
  cache_adaptations_ =
      metrics_.GetCounter("server.requests.cache_adaptations", "tables");
  degraded_tables_ =
      metrics_.GetCounter("server.requests.degraded", "tables");
  queue_depth_total_ = metrics_.GetGauge("server.queue.depth", "requests");
  clients_ = metrics_.GetGauge("server.clients", "caches");
  request_latency_ =
      metrics_.GetHistogram("server.request_latency_ns", "ns");
  queue_wait_ = metrics_.GetHistogram("server.queue_wait_ns", "ns");
  service_time_ = metrics_.GetHistogram("server.service_ns", "ns");
  shared_eis_->AttachMetrics(&metrics_);
  if (options_.corridor != nullptr) {
    options_.corridor->AttachMetrics(&metrics_);
  }

  size_t num_workers = threads_ == 0 ? 1 : static_cast<size_t>(threads_);
  ECOCHARGE_CHECK(options_.epochs == nullptr ||
                  options_.epochs->max_readers() >= num_workers)
      << "WorldEpochs needs one reader slot per worker";
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    // A full per-worker stack sharing only the synchronized EIS: every
    // estimator output is a pure function of (seed, query), so per-worker
    // instances are interchangeable with the environment's own estimator.
    worker->estimator = std::make_unique<EcEstimator>(
        env_->dataset.network, &env_->chargers, env_->energy.get(),
        env_->availability.get(), env_->congestion.get(),
        env_->estimator->options(), shared_eis_.get());
    worker->ranker = std::make_unique<EcoChargeRanker>(
        worker->estimator.get(), env_->charger_index.get(), weights,
        eco_options);
    // Pre-size the batched-refinement scratch to the configured refine
    // limit and the SoA candidate lanes to the fleet size (which bounds
    // any query's candidate volume), so even a worker's very first
    // request allocates nothing in the pipeline.
    worker->ctx.derouting.Reserve(eco_options.refine_limit);
    worker->ctx.lanes.Reserve(env_->chargers.size());
    worker->estimator->AttachMetrics(&metrics_);
    worker->ranker->AttachMetrics(&metrics_);
    worker->queue_depth = metrics_.GetGauge(
        "server.queue.depth.w" + std::to_string(i), "requests");
    workers_.push_back(std::move(worker));
  }
  if (threads_ > 0) {
    for (auto& worker : workers_) {
      worker->queue =
          std::make_unique<BoundedQueue<Request>>(options_.queue_depth);
      worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
    }
  }
}

OfferingServer::~OfferingServer() {
  Shutdown();
  if (options_.corridor != nullptr) options_.corridor->AttachMetrics(nullptr);
}

size_t OfferingServer::WorkerIndexFor(uint64_t client_id) const {
  // Stable client -> worker routing: a client's requests are always served
  // by the same worker in FIFO order (the determinism and cache-affinity
  // invariant). Mix the id so sequential vehicle ids spread across workers.
  uint64_t h = client_id * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h % workers_.size());
}

SimTime OfferingServer::AdvanceClock(uint64_t client_id, SimTime time) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  if (client_id == lead_client_) {
    lead_time_ = std::max(lead_time_, time);
  } else if (time > lead_time_) {
    clock_ = lead_time_;
    lead_time_ = time;
    lead_client_ = client_id;
  } else {
    clock_ = std::max(clock_, time);
  }
  return clock_;
}

Status OfferingServer::Submit(uint64_t client_id, const VehicleState& state,
                              size_t k, TableCallback on_table) {
  Request request;
  request.client_id = client_id;
  request.state = state;
  request.k = k;
  request.clock = AdvanceClock(client_id, state.time);
  request.on_table = std::move(on_table);
  return SubmitRequest(std::move(request));
}

Status OfferingServer::SubmitWire(uint64_t client_id, std::string wire,
                                  ReplyCallback on_reply) {
  Request request;
  request.client_id = client_id;
  request.is_wire = true;
  Result<OfferingRequest> decoded = DecodeOfferingRequest(wire);
  if (decoded.ok()) {
    request.state = decoded.value().state;
    request.k = decoded.value().k;
    request.clock = AdvanceClock(client_id, request.state.time);
  } else {
    request.wire_error = decoded.status();
  }
  request.on_reply = std::move(on_reply);
  return SubmitRequest(std::move(request));
}

Status OfferingServer::SubmitRequest(Request request) {
  request.submitted_at = std::chrono::steady_clock::now();
  if (shutdown_.load(std::memory_order_acquire)) {
    rejected_->Add();
    return Status::FailedPrecondition("offering server is shut down");
  }
  Worker& worker = *workers_[WorkerIndexFor(request.client_id)];
  if (threads_ == 0) {
    accepted_->Add();
    Serve(worker, request);
    return Status::OK();
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (!worker.queue->TryPush(std::move(request))) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    rejected_->Add();
    return Status::Unavailable("worker queue full");
  }
  accepted_->Add();
  queue_depth_total_->Add(1);
  worker.queue_depth->Add(1);
  return Status::OK();
}

void OfferingServer::ServeTable(Worker& worker, const VehicleState& state,
                                size_t k, uint64_t client_id, SimTime clock,
                                const WorldRevisions* revisions) {
  if (options_.corridor != nullptr) {
    // Corridor mode: serve the canonical corridor table — the paper's
    // Dynamic Caching generalized across users. The stored value is a
    // pure function of (key, revisions), so a concurrent duplicate miss
    // regenerates the identical bytes and insertion order cannot matter.
    WorldRevisions zero;
    const WorldRevisions& revs = revisions ? *revisions : zero;
    uint64_t key = options_.corridor->KeyFor(state, k, revs);
    if (!options_.corridor->GetInto(key, state.time, &worker.table)) {
      VehicleState anchor = options_.corridor->CanonicalState(state);
      worker.ranker->RankInto(anchor, k, /*cache=*/nullptr, worker.ctx,
                              &worker.table);
      options_.corridor->Put(key, worker.table, state.time);
    }
    return;
  }
  // worker.table is the worker's long-lived reply buffer (like the
  // QueryContext, it reaches its high-water capacity and stays there).
  DynamicCache* cache = worker.ranker->options().use_dynamic_cache
                            ? &CacheFor(worker, client_id, clock)
                            : nullptr;
  worker.ranker->RankInto(state, k, cache, worker.ctx, &worker.table);
}

DynamicCache& OfferingServer::CacheFor(Worker& worker, uint64_t client_id,
                                       SimTime clock) {
  // Expiry on the server clock (see the class comment). Erasing frees
  // nodes and allocates nothing.
  if (clock >= worker.next_sweep) {
    const size_t before = worker.caches.size();
    std::erase_if(worker.caches, [clock](const auto& entry) {
      return entry.second.Droppable(clock);
    });
    clients_->Sub(static_cast<int64_t>(before - worker.caches.size()));
    worker.next_sweep = clock + cache_options_.ttl_s;
  }
  auto [it, inserted] = worker.caches.try_emplace(client_id, cache_options_);
  ClientCache& client = it->second;
  if (inserted) {
    clients_->Add(1);
  } else if (client.Droppable(clock)) {
    // What a sweep would have erased: with another worker count it may
    // have run, so the table must not depend on whether it did.
    client.cache.Clear();
  }
  client.touched = clock;
  return client.cache;
}

void OfferingServer::Serve(Worker& worker, Request& request) {
  // Submit -> here is queue residency (near zero inline); here -> reply is
  // service time. The three histograms share both clock reads, so wait +
  // service equals the end-to-end latency exactly.
  const auto dequeued_at = std::chrono::steady_clock::now();
  if (options_.simulated_io_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.simulated_io_ms));
  }
  // The request's virtual deadline budget: every resilient EIS fetch under
  // this scope charges injected latency and retry backoff against it (one
  // worker serves one request at a time, so a thread-local scope is exact).
  std::optional<resilience::ScopedRequestDeadline> deadline;
  if (options_.resilient_eis && options_.request_deadline_ms > 0.0) {
    deadline.emplace(options_.request_deadline_ms);
  }
  // Pin the world version for the whole request: two atomic stores, no
  // mutex, no allocation. The pinned revisions re-key the EIS caches (via
  // the thread-local scope) so a concurrent refresh publish becomes
  // visible only at the next request boundary — never mid-rank.
  std::optional<WorldEpochs::ReaderPin> pin;
  std::optional<ScopedWorldRevisions> world;
  const WorldRevisions* revisions = nullptr;
  if (options_.epochs != nullptr) {
    pin.emplace(options_.epochs->Pin(worker.index));
    revisions = &pin->snapshot().revisions;
    world.emplace(*revisions);
  }
  if (!request.wire_error.ok()) {
    malformed_->Add();
    if (request.on_reply) request.on_reply(request.wire_error);
  } else {
    ServeTable(worker, request.state, request.k, request.client_id,
               request.clock, revisions);
    if (worker.table.adapted_from_cache) cache_adaptations_->Add();
    if (worker.table.degraded) degraded_tables_->Add();
    // The wire form's reply is the encoded table.
    if (request.is_wire) {
      if (request.on_reply) {
        request.on_reply(EncodeOfferingTable(worker.table));
      }
    } else if (request.on_table) {
      request.on_table(worker.table);
    }
  }
  served_->Add();
  const auto replied_at = std::chrono::steady_clock::now();
  auto ns = [](std::chrono::steady_clock::duration d) {
    return static_cast<uint64_t>(std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()));
  };
  queue_wait_->Record(ns(dequeued_at - request.submitted_at));
  service_time_->Record(ns(replied_at - dequeued_at));
  request_latency_->Record(ns(replied_at - request.submitted_at));
}

void OfferingServer::FinishOne() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void OfferingServer::WorkerLoop(Worker& worker) {
  while (std::optional<Request> request = worker.queue->Pop()) {
    queue_depth_total_->Sub(1);
    worker.queue_depth->Sub(1);
    Serve(worker, *request);
    FinishOne();
  }
}

void OfferingServer::Drain() {
  if (threads_ == 0) return;  // inline mode serves within Submit
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void OfferingServer::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  if (threads_ == 0) return;
  // Closing lets workers drain what was accepted, then exit their loops.
  for (auto& worker : workers_) worker->queue->Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

OfferingServerStats OfferingServer::Stats() const {
  OfferingServerStats stats;
  stats.accepted = accepted_->Value();
  stats.rejected = rejected_->Value();
  stats.served = served_->Value();
  stats.malformed = malformed_->Value();
  stats.cache_adaptations = cache_adaptations_->Value();
  stats.degraded_tables = degraded_tables_->Value();
  stats.clients = clients_->Value();
  return stats;
}

}  // namespace ecocharge
