#include "serving.h"

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>

#include "ch/ch_customize.h"
#include "core/dynamic_cache.h"
#include "eis/world_revisions.h"
#include "server/offering_server.h"
#include "server/world_epochs.h"

namespace perfbench {

using namespace ecocharge;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

void Publish(WorldEpochs* epochs, const Request& r) {
  const Refresh kind = r.refresh_before;
  epochs->Publish(r.state.time, [kind](WorldSnapshot* snapshot) {
    switch (kind) {
      case Refresh::kWeather:
        ++snapshot->revisions.weather;
        break;
      case Refresh::kAvailability:
        ++snapshot->revisions.availability;
        break;
      case Refresh::kTraffic:
        ++snapshot->revisions.traffic;
        break;
      case Refresh::kNone:
        break;
    }
  });
}

/// The serving state a corridor_fleet pass owns: one epoch ring with a
/// single reader slot and an empty corridor cache.
struct CorridorWorld {
  explicit CorridorWorld(Workload* w)
      : epochs(1),
        cache(w->env->dataset.network.get(), w->corridor_options) {}
  WorldEpochs epochs;
  CorridorCache cache;
};

/// Replays the stream through `serve`, which returns the served table or
/// null when the submission failed. Classifies, validates and digests
/// every table; times every request.
template <typename ServeFn>
PassResult RunStream(Workload* w, Reference* reference,
                     CorridorWorld* corridor, ServeFn&& serve,
                     std::vector<double>* latencies_ms,
                     ServedSample* sample) {
  PassResult result;
  result.requests = w->stream.size();
  const size_t fleet = w->env->chargers.size();
  latencies_ms->resize(w->stream.size());
  uint64_t reference_ns = 0;
  const auto pass_start = Clock::now();
  for (size_t i = 0; i < w->stream.size(); ++i) {
    const Request& r = w->stream[i];
    reference_ns += reference->MaybeRun();
    if (corridor != nullptr && r.refresh_before != Refresh::kNone) {
      const auto t0 = Clock::now();
      Publish(&corridor->epochs, r);
      result.publish_ns += NanosBetween(t0, Clock::now());
      ++result.publishes;
    }
    const uint64_t hits_before =
        corridor != nullptr ? corridor->cache.stats().hits : 0;
    const auto t0 = Clock::now();
    const OfferingTable* table = serve(r);
    const auto t1 = Clock::now();
    (*latencies_ms)[i] = static_cast<double>(NanosBetween(t0, t1)) * 1e-6;
    if (table == nullptr) {
      result.ledger.AddFailure();
      continue;
    }
    if (corridor != nullptr && corridor->cache.stats().hits > hits_before) {
      ++result.paths.corridor_hits;
    } else if (table->adapted_from_cache) {
      ++result.paths.adapted;
    } else {
      ++result.paths.fresh;
    }
    result.ledger.Add(*table, w->k, fleet);
    if (sample != nullptr && sample->every > 0 && i % sample->every == 0) {
      sample->states.push_back(r.state);
      sample->tables.push_back(*table);
    }
  }
  reference_ns += reference->Run();
  result.wall_s =
      static_cast<double>(NanosBetween(pass_start, Clock::now()) -
                          reference_ns) *
      1e-9;
  result.scale = reference->TakeScale();
  return result;
}

CknnEcOptions ProcessorOptions(const EcoChargeOptions& o) {
  // The mapping EcoChargeRanker applies to its options.
  CknnEcOptions c;
  c.radius_m = o.radius_m;
  c.refine_limit = o.refine_limit;
  c.refine_exact_derouting = o.refine_exact_derouting;
  c.use_intersection = o.use_intersection;
  c.batch_derouting = o.batch_derouting;
  c.landmarks = o.landmarks;
  c.landmark_refine_order = o.landmark_refine_order;
  c.ch = o.ch;
  c.use_simd = o.use_simd;
  c.derouting_norm_m = 2.0 * o.radius_m;
  return c;
}

/// The inline OfferingServer's request path, rebuilt from the same public
/// calls with a span around each stage: OfferingServer::ServeTable (corridor
/// lookup, canonical fresh rank, insert) and OfferingService::RankInto /
/// RankFresh, whose EcoChargeRanker runs Dynamic Caching and the
/// CknnEcProcessor's filter, score and refine stages. The spatial index and
/// the EIS underneath are the tracing decorators.
class TracedServer {
 public:
  TracedServer(Workload* w, Tracer* tracer, obs::MetricsRegistry* registry,
               CorridorWorld* corridor)
      : w_(w),
        tracer_(tracer),
        corridor_(corridor),
        weights_(ScoreWeights::AWE()),
        eis_(w->env->energy.get(), w->env->availability.get(),
             w->env->congestion.get(), EisShards(), tracer),
        estimator_(w->env->dataset.network, &w->env->chargers,
                   w->env->energy.get(), w->env->availability.get(),
                   w->env->congestion.get(), w->env->estimator->options(),
                   &eis_),
        index_(w->env->charger_index.get(), tracer),
        metrics_(PipelineMetrics::FromRegistry(registry)) {
    eis_.AttachMetrics(registry);
    estimator_.AttachMetrics(registry);
    ctx_.derouting.Reserve(w->eco.refine_limit);
    ctx_.lanes.Reserve(w->env->chargers.size());
  }

  const OfferingTable* Serve(const Request& r) {
    Span root(tracer_, SpanKind::kRequest);
    if (corridor_ != nullptr) {
      WorldEpochs::ReaderPin pin = corridor_->epochs.Pin(0);
      const WorldRevisions& revisions = pin.snapshot().revisions;
      ScopedWorldRevisions world(revisions);
      uint64_t key = 0;
      bool hit = false;
      {
        Span span(tracer_, SpanKind::kCorridorLookup);
        key = corridor_->cache.KeyFor(r.state, w_->k, revisions);
        hit = corridor_->cache.GetInto(key, r.state.time, &table_);
      }
      if (!hit) {
        const VehicleState anchor = corridor_->cache.CanonicalState(r.state);
        Rank(FreshProcessor(), nullptr, anchor, &table_);
        Span span(tracer_, SpanKind::kCorridorPut);
        corridor_->cache.Put(key, table_, r.state.time);
      }
      return &table_;
    }
    Client& client = clients_[r.client_id];
    if (client.processor == nullptr) {
      client.processor = NewProcessor();
      if (w_->eco.use_dynamic_cache) {
        client.cache = std::make_unique<DynamicCache>(DynamicCacheOptions{
            w_->eco.q_distance_m, w_->eco.cache_ttl_s});
      }
    }
    Rank(*client.processor, client.cache.get(), r.state, &table_);
    return &table_;
  }

  void ReadTotals(const obs::MetricsRegistry& registry,
                  RegistryTotals* totals) const {
    if (const obs::Histogram* h =
            registry.FindHistogram("pipeline.batch_derouting_ns")) {
      const obs::HistogramSnapshot s = h->Snapshot();
      totals->batch_ns += s.sum;
      totals->batches += s.count;
    }
    if (const obs::Histogram* h = registry.FindHistogram("ch.customize_ns")) {
      const obs::HistogramSnapshot s = h->Snapshot();
      totals->customize_ns += s.sum;
      totals->customizations += s.count;
    }
    auto counter = [&registry](const char* name) -> uint64_t {
      const obs::Counter* c = registry.FindCounter(name);
      return c != nullptr ? c->Value() : 0;
    };
    totals->batch_targets += counter("pipeline.batch_targets");
    totals->warm_starts += counter("pipeline.warm_start_hits");
    totals->plane_hits += counter("ch.cache.hits");
    totals->plane_misses += counter("ch.cache.misses");
    const EisCallStats eis = eis_.Snapshot();
    totals->eis.weather_cache.hits += eis.weather_cache.hits;
    totals->eis.weather_cache.misses += eis.weather_cache.misses;
    totals->eis.availability_cache.hits += eis.availability_cache.hits;
    totals->eis.availability_cache.misses += eis.availability_cache.misses;
    totals->eis.traffic_cache.hits += eis.traffic_cache.hits;
    totals->eis.traffic_cache.misses += eis.traffic_cache.misses;
  }

 private:
  struct Client {
    std::unique_ptr<CknnEcProcessor> processor;
    std::unique_ptr<DynamicCache> cache;  // null with Dynamic Caching off
  };

  static EisOptions EisShards() {
    EisOptions o;
    o.cache_shards = OfferingServerOptions{}.eis_cache_shards;
    return o;
  }

  std::unique_ptr<CknnEcProcessor> NewProcessor() {
    auto p = std::make_unique<CknnEcProcessor>(&estimator_, &index_,
                                               ProcessorOptions(w_->eco));
    p->set_metrics(metrics_);
    return p;
  }

  CknnEcProcessor& FreshProcessor() {
    if (fresh_ == nullptr) fresh_ = NewProcessor();
    return *fresh_;
  }

  // EcoChargeRanker::RankInto, stage by stage.
  void Rank(CknnEcProcessor& p, DynamicCache* cache, const VehicleState& s,
            OfferingTable* out) {
    out->generated_at = s.time;
    out->location = s.position;
    out->segment_index = s.segment_index;
    out->adapted_from_cache = false;
    out->degraded = false;
    out->entries.clear();
    if (cache != nullptr) {
      const std::vector<ScoredCandidate>* cached = nullptr;
      {
        Span span(tracer_, SpanKind::kDynamicCache);
        cached = cache->TryReuse(s.position, s.time);
      }
      if (cached != nullptr) {
        Span span(tracer_, SpanKind::kAdapt);
        ctx_.scored.assign(cached->begin(), cached->end());
        p.RefineAndRank(s, &ctx_.scored, w_->k, weights_,
                        /*refine_exact_derouting=*/false, &ctx_,
                        &out->entries);
        out->adapted_from_cache = true;
        for (const OfferingEntry& e : out->entries) {
          out->NoteEntryDegradation(e.ecs);
        }
        return;
      }
    }
    const std::vector<ChargerId>* candidates = nullptr;
    {
      Span span(tracer_, SpanKind::kFilter);
      candidates = &p.FilterCandidates(s.position, &ctx_);
    }
    tracer_->candidates += candidates->size();
    const std::vector<ScoredCandidate>* scored = nullptr;
    {
      Span span(tracer_, SpanKind::kScore);
      scored = &p.ScoreCandidates(s, *candidates, weights_, &ctx_);
    }
    if (cache != nullptr) {
      Span span(tracer_, SpanKind::kDynamicCache);
      cache->Store(s.position, s.time, *scored);
    }
    {
      Span span(tracer_, SpanKind::kRefine);
      p.RefineAndRank(s, scored, w_->k, weights_,
                      w_->eco.refine_exact_derouting, &ctx_, &out->entries);
    }
    for (const OfferingEntry& e : out->entries) {
      out->NoteEntryDegradation(e.ecs);
    }
  }

  Workload* w_;
  Tracer* tracer_;
  CorridorWorld* corridor_;
  ScoreWeights weights_;
  TracedInformationServer eis_;
  EcEstimator estimator_;
  TracedSpatialIndex index_;
  PipelineMetrics metrics_;
  std::unordered_map<uint64_t, Client> clients_;
  std::unique_ptr<CknnEcProcessor> fresh_;
  QueryContext ctx_;
  OfferingTable table_;
};

}  // namespace

PassResult ServePass(Workload* w, Reference* reference,
                     std::vector<double>* latencies_ms, ServedSample* sample) {
  ResetChPlanes(w->env.get());
  std::optional<CorridorWorld> corridor;
  OfferingServerOptions options;
  options.threads = 0;
  if (w->corridor) {
    corridor.emplace(w);
    options.epochs = &corridor->epochs;
    options.corridor = &corridor->cache;
  }
  PassResult result;
  {
    OfferingServer server(w->env.get(), ScoreWeights::AWE(), w->eco, options);
    const OfferingTable* served = nullptr;
    auto serve = [&](const Request& r) -> const OfferingTable* {
      served = nullptr;
      const Status st = server.Submit(
          r.client_id, r.state, w->k,
          [&served](const OfferingTable& table) { served = &table; });
      return st.ok() ? served : nullptr;
    };
    result = RunStream(w, reference, corridor ? &*corridor : nullptr, serve,
                       latencies_ms, sample);
  }
  // The server registered its registry on the shared plane cache.
  if (w->env->ch_cache != nullptr) w->env->ch_cache->AttachMetrics(nullptr);
  return result;
}

PassResult TracedPass(Workload* w, Reference* reference, Tracer* tracer,
                      RegistryTotals* totals,
                      std::vector<double>* latencies_ms) {
  ResetChPlanes(w->env.get());
  std::optional<CorridorWorld> corridor;
  if (w->corridor) corridor.emplace(w);
  obs::MetricsRegistry registry(1);
  if (w->env->ch_cache != nullptr) w->env->ch_cache->AttachMetrics(&registry);
  PassResult result;
  {
    TracedServer server(w, tracer, &registry,
                        corridor ? &*corridor : nullptr);
    auto serve = [&server](const Request& r) { return server.Serve(r); };
    result = RunStream(w, reference, corridor ? &*corridor : nullptr, serve,
                       latencies_ms, nullptr);
    server.ReadTotals(registry, totals);
  }
  if (w->env->ch_cache != nullptr) w->env->ch_cache->AttachMetrics(nullptr);
  return result;
}

}  // namespace perfbench
