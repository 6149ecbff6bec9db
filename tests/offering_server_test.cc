#include "server/offering_server.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/offering_service.h"
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

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

// The server's per-worker stacks (own estimator, shared sharded EIS) must
// be invisible in the output: inline mode reproduces a plain
// OfferingService bit for bit, including Dynamic Caching behavior across
// a client's request sequence.
TEST_F(OfferingServerTest, InlineModeMatchesOfferingService) {
  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco_options;
  OfferingServer server(env_.get(), weights, eco_options, {});
  OfferingService reference(env_->estimator.get(), env_->charger_index.get(),
                            weights, eco_options);

  for (uint64_t client = 0; client < 3; ++client) {
    for (const VehicleState& state : states_) {
      OfferingTable from_server;
      ASSERT_TRUE(server
                      .Submit(client, state, 3,
                              [&](const OfferingTable& t) { from_server = t; })
                      .ok());
      OfferingTable expected;
      reference.RankInto(client, state, 3, &expected);
      EXPECT_TRUE(TablesBitIdentical(from_server, expected));
    }
  }
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, 3 * states_.size());
  EXPECT_EQ(stats.served, 3 * states_.size());
  EXPECT_EQ(stats.rejected, 0u);
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
  options.eis_cache_shards = 8;
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

}  // namespace
}  // namespace ecocharge
