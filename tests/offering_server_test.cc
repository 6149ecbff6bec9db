#include "server/offering_server.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ecocharge.h"
#include "core/protocol.h"
#include "server/corridor_cache.h"
#include "server/world_epochs.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using testing_util::TablesBitIdentical;
using testing_util::TinyEnvironment;
using testing_util::TinyWorkload;

class OfferingServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = TinyEnvironment();
    ASSERT_NE(env_, nullptr);
    states_ = TinyWorkload(*env_, 6);
    ASSERT_GE(states_.size(), 4u);
  }

  // The churn replay: round r serves clients [r * kShift, r * kShift +
  // kWindow) at start + r * kRoundS, each client always at one position,
  // so its second round adapts its cache. With `skewed`, client kSkewed
  // (a vehicle whose clock is ~11 days ahead) sends one request in the
  // middle round, before the fleet's. Fills
  // `tables` with the fleet's tables and `live` with Stats().clients
  // after each round, and returns the drained server.
  static constexpr uint64_t kRounds = 12;
  static constexpr uint64_t kWindow = 8;  // clients per round
  static constexpr uint64_t kShift = 4;   // clients replaced each round
  static constexpr double kRoundS = 200.0;
  static constexpr double kChurnTtlS = 300.0;
  static constexpr uint64_t kSkewed = 1u << 20;

  VehicleState ChurnState(uint64_t client, uint64_t round) const {
    VehicleState state = states_[client % states_.size()];
    state.time = states_[0].time + static_cast<double>(round) * kRoundS;
    return state;
  }

  std::unique_ptr<OfferingServer> ChurnReplay(
      int threads, bool skewed, std::vector<OfferingTable>* tables,
      std::vector<int64_t>* live) {
    EcoChargeOptions eco_options;
    eco_options.cache_ttl_s = kChurnTtlS;
    OfferingServerOptions options;
    options.threads = threads;
    options.queue_depth = kWindow + 1;  // one round fits; nothing shed
    auto server = std::make_unique<OfferingServer>(
        env_.get(), ScoreWeights::AWE(), eco_options, options);
    tables->assign(kRounds * kWindow, OfferingTable{});
    for (uint64_t round = 0; round < kRounds; ++round) {
      if (skewed && round == kRounds / 2) {
        VehicleState ahead = ChurnState(kSkewed, round);
        ahead.time += 1e6;
        EXPECT_TRUE(server->Submit(kSkewed, ahead, 3, nullptr).ok());
      }
      for (uint64_t i = 0; i < kWindow; ++i) {
        const uint64_t client = round * kShift + i;
        OfferingTable* slot = &(*tables)[round * kWindow + i];
        EXPECT_TRUE(server
                        ->Submit(client, ChurnState(client, round), 3,
                                 [slot](const OfferingTable& t) { *slot = t; })
                        .ok());
      }
      server->Drain();
      live->push_back(server->Stats().clients);
    }
    return server;
  }

  // (kRounds - 1) * kShift + kWindow = 52 clients are served; a cache
  // lives at most TTL + one sweep period (600 s, three rounds), so at most
  // the clients of four consecutive rounds are ever live.
  static void ExpectBounded(const std::vector<int64_t>& live, int64_t extra) {
    const int64_t bound = static_cast<int64_t>(kWindow + 3 * kShift) + extra;
    for (size_t round = 0; round < live.size(); ++round) {
      EXPECT_GT(live[round], 0) << "round " << round;
      EXPECT_LE(live[round], bound) << "round " << round;
    }
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

// The server's per-worker stack (own estimator, shared sharded EIS, one
// ranker shared by all clients, one Dynamic Cache per client) must be
// invisible in the output: inline mode reproduces one EcoChargeRanker per
// client bit for bit, including Dynamic Caching behavior across each
// client's request sequence while the clients interleave. The workload,
// its states 100 s apart, is replayed forwards, then backwards with every
// state twice: the times go back by more than a TTL, but no client is ever
// idle for a TTL, so no cache is dropped.
TEST_F(OfferingServerTest, InlineModeMatchesOneRankerPerClient) {
  constexpr uint64_t kClients = 3;
  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco_options;
  eco_options.cache_ttl_s = 300.0;
  OfferingServer server(env_.get(), weights, eco_options, {});
  std::vector<std::unique_ptr<EcoChargeRanker>> reference;
  for (uint64_t client = 0; client < kClients; ++client) {
    reference.push_back(std::make_unique<EcoChargeRanker>(
        env_->estimator.get(), env_->charger_index.get(), weights,
        eco_options));
  }
  QueryContext ctx;
  std::vector<VehicleState> stream = states_;
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].time = states_[0].time + 100.0 * static_cast<double>(i);
  }
  for (size_t i = states_.size(); i-- > 0;) {
    stream.push_back(stream[i]);  // fresh unless adapted from i + 1
    stream.push_back(stream[i]);  // adapts
  }

  for (const VehicleState& state : stream) {
    for (uint64_t client = 0; client < kClients; ++client) {
      OfferingTable from_server;
      ASSERT_TRUE(server
                      .Submit(client, state, 3,
                              [&](const OfferingTable& t) { from_server = t; })
                      .ok());
      OfferingTable expected;
      reference[client]->RankInto(state, 3, ctx, &expected);
      EXPECT_TRUE(TablesBitIdentical(from_server, expected));
    }
  }
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, kClients * stream.size());
  EXPECT_EQ(stats.served, kClients * stream.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.cache_adaptations, 0u);
}

// Serving state stays bounded: many more clients than workers come and go
// over several cache TTLs, and each worker drops the caches that expired.
// Dropping is invisible in the tables — threads = 2 matches the inline
// run, and a client returning after expiry is served exactly like one
// the server has never seen.
TEST_F(OfferingServerTest, ExpiredClientCachesAreDropped) {
  std::vector<OfferingTable> inline_tables, threaded_tables;
  std::vector<int64_t> inline_live, threaded_live;
  ChurnReplay(0, /*skewed=*/false, &inline_tables, &inline_live);
  std::unique_ptr<OfferingServer> server =
      ChurnReplay(2, /*skewed=*/false, &threaded_tables, &threaded_live);
  EXPECT_GT(server->Stats().cache_adaptations, 0u);
  for (size_t i = 0; i < inline_tables.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(inline_tables[i], threaded_tables[i]))
        << "round " << i / kWindow << " slot " << i % kWindow;
  }
  ExpectBounded(inline_live, 0);
  ExpectBounded(threaded_live, 0);

  // Client 0 was last seen in round 1; long after its cache expired it
  // returns next to a client the server has never seen.
  const uint64_t never_seen = kRounds * kShift + kWindow;
  VehicleState late = ChurnState(0, kRounds + 10);
  OfferingTable returning, fresh;
  EXPECT_TRUE(server
                  ->Submit(0, late, 3,
                           [&](const OfferingTable& t) { returning = t; })
                  .ok());
  EXPECT_TRUE(server
                  ->Submit(never_seen, late, 3,
                           [&](const OfferingTable& t) { fresh = t; })
                  .ok());
  server->Drain();
  EXPECT_FALSE(returning.adapted_from_cache);
  EXPECT_FALSE(fresh.adapted_from_cache);
  EXPECT_TRUE(TablesBitIdentical(returning, fresh));
}

// One request from a vehicle whose clock is far ahead of the fleet moves
// neither the server clock nor the sweeps: the rest of the fleet gets the
// tables (adaptations included) it gets without that vehicle, and the
// caches stay bounded.
TEST_F(OfferingServerTest, SkewedClientClockLeavesOthersCaching) {
  std::vector<OfferingTable> plain_tables, skewed_tables;
  std::vector<int64_t> plain_live, skewed_live;
  ChurnReplay(2, /*skewed=*/false, &plain_tables, &plain_live);
  ChurnReplay(2, /*skewed=*/true, &skewed_tables, &skewed_live);
  size_t adapted = 0;
  for (size_t i = 0; i < plain_tables.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(plain_tables[i], skewed_tables[i]))
        << "round " << i / kWindow << " slot " << i % kWindow;
    adapted += skewed_tables[i].adapted_from_cache ? 1 : 0;
  }
  EXPECT_GT(adapted, 0u);
  ExpectBounded(skewed_live, /*extra=*/1);  // the skewed vehicle's cache
}

// The end-to-end latency splits into queue residency and service time:
// both are recorded per request, inline too, and never sum past it.
TEST_F(OfferingServerTest, LatencySplitsIntoQueueWaitAndService) {
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        {});
  for (const VehicleState& state : states_) {
    ASSERT_TRUE(server.Submit(1, state, 3, nullptr).ok());
  }
  const obs::MetricsRegistry& registry = server.metrics();
  const obs::Histogram* wait = registry.FindHistogram("server.queue_wait_ns");
  const obs::Histogram* service = registry.FindHistogram("server.service_ns");
  const obs::Histogram* latency =
      registry.FindHistogram("server.request_latency_ns");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(service, nullptr);
  ASSERT_NE(latency, nullptr);
  const obs::HistogramSnapshot w = wait->Snapshot();
  const obs::HistogramSnapshot s = service->Snapshot();
  const obs::HistogramSnapshot l = latency->Snapshot();
  EXPECT_EQ(w.count, states_.size());
  EXPECT_EQ(s.count, states_.size());
  EXPECT_EQ(l.count, states_.size());
  EXPECT_GT(s.sum, 0u);
  EXPECT_LE(w.sum + s.sum, l.sum);
  EXPECT_LE(w.max, l.max);
  EXPECT_LE(s.max, l.max);
}

// The concurrency determinism guarantee: N worker threads produce exactly
// the same table for every (client, request-sequence) position as the
// synchronous mode — hash routing pins a client to one worker (per-client
// FIFO), and everything shared between workers is pure.
TEST_F(OfferingServerTest, FourThreadsBitIdenticalToInline) {
  constexpr uint64_t kClients = 8;
  const size_t per_client = states_.size();
  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco_options;

  auto run = [&](int threads) {
    OfferingServerOptions options;
    options.threads = threads;
    options.queue_depth = kClients * per_client;  // nothing shed
    OfferingServer server(env_.get(), weights, eco_options, options);
    // One slot per (client, sequence); each is written exactly once, by
    // the worker serving that client.
    std::vector<OfferingTable> tables(kClients * per_client);
    for (size_t seq = 0; seq < per_client; ++seq) {
      for (uint64_t client = 0; client < kClients; ++client) {
        OfferingTable* slot = &tables[client * per_client + seq];
        EXPECT_TRUE(server
                        .Submit(client, states_[seq], 3,
                                [slot](const OfferingTable& t) { *slot = t; })
                        .ok());
      }
    }
    server.Drain();
    return tables;
  };

  std::vector<OfferingTable> inline_tables = run(0);
  std::vector<OfferingTable> threaded_tables = run(4);
  ASSERT_EQ(inline_tables.size(), threaded_tables.size());
  for (size_t i = 0; i < inline_tables.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(inline_tables[i], threaded_tables[i]))
        << "client " << i / per_client << " seq " << i % per_client;
  }
}

// Request times that go backwards: half the fleet reports sim times
// 250 s behind the other half, so the stream keeps jumping back by most of
// a cache TTL. Each client sits out every third block of three rounds and
// its own clock stands still meanwhile, so it returns idle for longer than
// the TTL on the server clock yet within the TTL on its own. Workers sweep
// in other rounds than the inline server does; caches expire on the server
// clock, stamped in submission order by Submit and SubmitWire alike, so
// which worker swept when cannot change a table.
TEST_F(OfferingServerTest, BackwardsTimesStillMatchInline) {
  constexpr uint64_t kClients = 16;  // odd ids lag
  constexpr uint64_t kRounds = 16;
  constexpr double kRoundS = 100.0;
  constexpr double kLagS = 250.0;
  EcoChargeOptions eco_options;
  eco_options.cache_ttl_s = 300.0;
  const SimTime start = states_[0].time;

  // Each slot receives its request's encoded table.
  auto run = [&](int threads, bool wire) {
    OfferingServerOptions options;
    options.threads = threads;
    options.queue_depth = kClients * kRounds;  // nothing shed
    OfferingServer server(env_.get(), ScoreWeights::AWE(), eco_options,
                          options);
    std::vector<std::string> tables(kClients * kRounds);
    std::vector<uint64_t> active(kClients, 0);  // rounds each client served
    for (uint64_t round = 0; round < kRounds; ++round) {
      for (uint64_t client = 0; client < kClients; ++client) {
        if ((round / 3 + client) % 3 == 0) continue;
        OfferingRequest request;
        request.state = states_[client % states_.size()];
        request.state.time =
            start + static_cast<double>(active[client]++) * kRoundS -
            (client % 2 == 1 ? kLagS : 0.0);
        request.k = 3;
        std::string* slot = &tables[round * kClients + client];
        Status st =
            wire ? server.SubmitWire(client, EncodeOfferingRequest(request),
                                     [slot](const Result<std::string>& r) {
                                       EXPECT_TRUE(r.ok());
                                       if (r.ok()) *slot = r.value();
                                     })
                 : server.Submit(client, request.state, request.k,
                                 [slot](const OfferingTable& t) {
                                   *slot = EncodeOfferingTable(t);
                                 });
        EXPECT_TRUE(st.ok());
      }
    }
    server.Drain();
    EXPECT_GT(server.Stats().cache_adaptations, 0u);
    return tables;
  };

  for (bool wire : {false, true}) {
    const std::vector<std::string> reference = run(0, wire);
    for (int threads : {2, 4}) {
      const std::vector<std::string> tables = run(threads, wire);
      for (size_t i = 0; i < tables.size(); ++i) {
        EXPECT_EQ(tables[i], reference[i])
            << (wire ? "wire" : "submit") << " threads=" << threads
            << " round " << i / kClients << " client " << i % kClients;
      }
    }
  }
}

// A full queue must shed load with kUnavailable, never block or drop an
// accepted request: one slow worker (per-request stall), tiny queue,
// rapid-fire submissions.
TEST_F(OfferingServerTest, FullQueueShedsWithUnavailable) {
  OfferingServerOptions options;
  options.threads = 1;
  options.queue_depth = 2;
  options.simulated_io_ms = 25.0;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);

  constexpr uint64_t kRequests = 10;
  std::atomic<uint64_t> callbacks{0};
  uint64_t ok = 0, unavailable = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    Status st = server.Submit(/*client_id=*/7, states_[0], 3,
                              [&](const OfferingTable&) { ++callbacks; });
    if (st.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st;
      ++unavailable;
    }
  }
  server.Drain();
  EXPECT_GE(unavailable, 1u);  // depth 2 cannot absorb 10 instant submits
  EXPECT_EQ(ok + unavailable, kRequests);

  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, ok);
  EXPECT_EQ(stats.rejected, unavailable);
  EXPECT_EQ(stats.served, ok);  // every accepted request was served
  EXPECT_EQ(callbacks.load(), ok);
}

TEST_F(OfferingServerTest, WirePathServesAndCountsMalformed) {
  OfferingServerOptions options;
  options.threads = 2;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);

  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  std::atomic<int> good{0};
  std::atomic<int> bad{0};
  ASSERT_TRUE(server
                  .SubmitWire(1, EncodeOfferingRequest(request),
                              [&](const Result<std::string>& reply) {
                                if (reply.ok() &&
                                    DecodeOfferingTable(reply.value()).ok()) {
                                  ++good;
                                }
                              })
                  .ok());
  ASSERT_TRUE(server
                  .SubmitWire(2, "definitely not a request\n",
                              [&](const Result<std::string>& reply) {
                                if (!reply.ok()) ++bad;
                              })
                  .ok());
  server.Drain();
  EXPECT_EQ(good.load(), 1);
  EXPECT_EQ(bad.load(), 1);
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.malformed, 1u);
}

// The wire path decodes on the worker and serves through the same table
// core as Submit — per-client or corridor — so a reply decodes to the
// in-process table, and a malformed frame is counted and reported.
TEST_F(OfferingServerTest, WireRepliesMatchSubmitInBothModes) {
  for (bool corridor_mode : {false, true}) {
    WorldEpochs epochs(2);
    CorridorCache corridor(env_->dataset.network.get(),
                           CorridorCacheOptions{});
    OfferingServerOptions options;
    options.threads = 2;
    options.epochs = &epochs;
    options.corridor = corridor_mode ? &corridor : nullptr;
    OfferingServer server(env_.get(), ScoreWeights::AWE(),
                          EcoChargeOptions{}, options);
    OfferingTable direct;
    ASSERT_TRUE(server
                    .Submit(1, states_[0], 3,
                            [&](const OfferingTable& t) { direct = t; })
                    .ok());
    server.Drain();

    OfferingRequest request;
    request.state = states_[0];
    request.k = 3;
    std::string reply;
    bool bad = false;
    ASSERT_TRUE(server
                    .SubmitWire(3, EncodeOfferingRequest(request),
                                [&](const Result<std::string>& r) {
                                  if (r.ok()) reply = r.value();
                                })
                    .ok());
    ASSERT_TRUE(server
                    .SubmitWire(2, "definitely not a request\n",
                                [&](const Result<std::string>& r) {
                                  bad = !r.ok();
                                })
                    .ok());
    server.Drain();
    Result<OfferingTable> decoded = DecodeOfferingTable(reply);
    ASSERT_TRUE(decoded.ok());
    // A fresh client with the same state gets the identical table; in
    // corridor mode it is the same corridor and bucket again, so a hit.
    EXPECT_TRUE(TablesBitIdentical(decoded.value(), direct));
    if (corridor_mode) {
      EXPECT_EQ(corridor.stats().hits, 1u);
    }
    EXPECT_TRUE(bad);
    OfferingServerStats stats = server.Stats();
    EXPECT_EQ(stats.served, 3u);
    EXPECT_EQ(stats.malformed, 1u);
  }
}

TEST_F(OfferingServerTest, SubmitAfterShutdownIsRejected) {
  OfferingServerOptions options;
  options.threads = 2;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  server.Shutdown();
  Status st = server.Submit(1, states_[0], 3, [](const OfferingTable&) {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// Shutdown with queued work: everything accepted before Shutdown is still
// served (Close drains, it does not drop).
TEST_F(OfferingServerTest, ShutdownServesAcceptedRequests) {
  OfferingServerOptions options;
  options.threads = 1;
  options.queue_depth = 64;
  options.simulated_io_ms = 2.0;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  std::atomic<uint64_t> callbacks{0};
  uint64_t ok = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (server
            .Submit(i, states_[i % states_.size()], 3,
                    [&](const OfferingTable&) { ++callbacks; })
            .ok()) {
      ++ok;
    }
  }
  server.Shutdown();
  EXPECT_EQ(callbacks.load(), ok);
  EXPECT_EQ(server.Stats().served, ok);
}

// All workers account against one shared Information Server: after
// traffic, its counters reflect calls from every worker.
TEST_F(OfferingServerTest, WorkersShareOneInformationServer) {
  OfferingServerOptions options;
  options.threads = 4;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  for (uint64_t client = 0; client < 8; ++client) {
    ASSERT_TRUE(
        server.Submit(client, states_[0], 3, [](const OfferingTable&) {})
            .ok());
  }
  server.Drain();
  EisCallStats eis = server.information_server().Snapshot();
  EXPECT_GT(eis.weather_api_calls + eis.availability_api_calls +
                eis.traffic_api_calls,
            0u);
}

// One server serves a fleet: every worker shares one world-version ring
// and one corridor cache. The canonical corridor table is a pure function
// of (key, revisions), and revisions re-key caches without changing any
// forecast, so worker count, hit-vs-miss order, and which side of a
// concurrent publish a queued request lands on cannot change a bit.
TEST_F(OfferingServerTest, CorridorModeWithPublishesBitIdenticalAcrossThreads) {
  constexpr uint64_t kClients = 6;
  const size_t per_client = states_.size();
  auto run = [&](int threads, CacheStats* corridor_stats) {
    WorldEpochs epochs(static_cast<size_t>(std::max(1, threads)));
    CorridorCache corridor(env_->dataset.network.get(),
                           CorridorCacheOptions{});
    OfferingServerOptions options;
    options.threads = threads;
    options.queue_depth = 4096;
    options.epochs = &epochs;
    options.corridor = &corridor;
    OfferingServer server(env_.get(), ScoreWeights::AWE(),
                          EcoChargeOptions{}, options);
    // Each (client, sequence) slot is written exactly once, so threaded
    // runs compare with the inline run position by position.
    std::vector<OfferingTable> tables(kClients * per_client);
    for (size_t seq = 0; seq < per_client; ++seq) {
      // Publish mid-stream, while earlier requests may still be queued.
      if (seq % 3 == 2) {
        epochs.Publish(states_[seq].time, [seq](WorldSnapshot* snapshot) {
          WorldRevisions& r = snapshot->revisions;
          ++(seq % 2 == 0 ? r.weather : r.availability);
        });
      }
      for (uint64_t c = 0; c < kClients; ++c) {
        OfferingTable* slot = &tables[c * per_client + seq];
        EXPECT_TRUE(server
                        .Submit(c, states_[(seq + c) % per_client], 3,
                                [slot](const OfferingTable& t) { *slot = t; })
                        .ok());
      }
    }
    server.Drain();
    *corridor_stats = corridor.stats();
    EXPECT_EQ(server.Stats().served, tables.size());
    const obs::Counter* hits =
        server.metrics().FindCounter("server.corridor.hits");
    EXPECT_NE(hits, nullptr);
    if (hits != nullptr) {
      EXPECT_EQ(hits->Value(), corridor_stats->hits);
    }
    return tables;
  };
  CacheStats inline_stats;
  const std::vector<OfferingTable> reference = run(0, &inline_stats);
  // kClients vehicles share corridors inside each epoch, so the inline run
  // already serves tables from the shared cache.
  EXPECT_GT(inline_stats.hits, 0u);
  for (int threads : {2, 4, 8}) {
    CacheStats stats;
    const std::vector<OfferingTable> tables = run(threads, &stats);
    ASSERT_EQ(tables.size(), reference.size());
    for (size_t i = 0; i < tables.size(); ++i) {
      EXPECT_TRUE(TablesBitIdentical(tables[i], reference[i]))
          << "threads=" << threads << " slot=" << i;
    }
  }
}

// The Mode-2 offering service as a vehicle sees it: wire frames in,
// Offering Tables out, one Dynamic Cache per client, all served by an
// inline OfferingServer.
class OfferingServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = TinyEnvironment(50);
    ASSERT_NE(env_, nullptr);
    states_ = TinyWorkload(*env_, 4);
    ASSERT_FALSE(states_.empty());
    server_ = std::make_unique<OfferingServer>(
        env_.get(), ScoreWeights::AWE(), EcoChargeOptions{});
  }

  Result<std::string> HandleWire(uint64_t client_id, const std::string& wire) {
    Result<std::string> reply = Status::Internal("no reply");
    EXPECT_TRUE(server_
                    ->SubmitWire(client_id, wire,
                                 [&](const Result<std::string>& r) {
                                   reply = r;
                                 })
                    .ok());
    return reply;
  }

  OfferingTable Rank(uint64_t client_id, const VehicleState& state) {
    OfferingTable table;
    EXPECT_TRUE(server_
                    ->Submit(client_id, state, 3,
                             [&](const OfferingTable& t) { table = t; })
                    .ok());
    return table;
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
  std::unique_ptr<OfferingServer> server_;
};

TEST_F(OfferingServiceTest, WireRoundTripServesTable) {
  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  auto reply = HandleWire(7, EncodeOfferingRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto table = DecodeOfferingTable(reply.value());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().size(), 3u);
  EXPECT_EQ(server_->Stats().served, 1u);
  EXPECT_EQ(server_->Stats().malformed, 0u);
}

TEST_F(OfferingServiceTest, WireMatchesInProcessRanking) {
  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  auto reply = HandleWire(1, EncodeOfferingRequest(request));
  ASSERT_TRUE(reply.ok());
  auto via_wire = DecodeOfferingTable(reply.value()).MoveValueUnsafe();
  // A different client gets its own cache but the same deterministic
  // answer for the same state.
  OfferingTable direct = Rank(2, states_[0]);
  EXPECT_TRUE(TablesBitIdentical(via_wire, direct));
}

TEST_F(OfferingServiceTest, MalformedRequestCounted) {
  auto reply = HandleWire(7, "garbage");
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(server_->Stats().malformed, 1u);
  EXPECT_EQ(server_->Stats().cache_adaptations, 0u);
  EXPECT_EQ(server_->Stats().degraded_tables, 0u);
  EXPECT_EQ(server_->Stats().clients, 0);
}

TEST_F(OfferingServiceTest, PerClientCachesAreIsolated) {
  // Client A queries twice from the same spot: second is adapted. Client
  // B's first query from that spot must NOT be adapted (it has no cache).
  VehicleState s0 = states_[0];
  Rank(100, s0);
  VehicleState s1 = s0;
  s1.time += 60.0;
  OfferingTable a2 = Rank(100, s1);
  EXPECT_TRUE(a2.adapted_from_cache);
  OfferingTable b1 = Rank(200, s1);
  EXPECT_FALSE(b1.adapted_from_cache);
  EXPECT_EQ(server_->Stats().clients, 2);
  EXPECT_EQ(server_->Stats().cache_adaptations, 1u);
}

}  // namespace
}  // namespace ecocharge
