#include "core/offering_service.h"

#include <gtest/gtest.h>

#include "core/protocol.h"
#include "server/offering_server.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

class OfferingServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment(50);
    ASSERT_NE(env_, nullptr);
    states_ = testing_util::TinyWorkload(*env_, 4);
    ASSERT_FALSE(states_.empty());
    service_ = std::make_unique<OfferingService>(
        env_->estimator.get(), env_->charger_index.get(),
        ScoreWeights::AWE(), EcoChargeOptions{});
  }

  // The Mode-2 wire loop: an inline OfferingServer decodes the frame,
  // ranks through its worker's OfferingService and encodes the reply.
  Result<std::string> HandleWire(OfferingServer& server, uint64_t client_id,
                                 const std::string& wire) {
    Result<std::string> reply = Status::Internal("no reply");
    EXPECT_TRUE(server
                    .SubmitWire(client_id, wire,
                                [&](const Result<std::string>& r) {
                                  reply = r;
                                })
                    .ok());
    return reply;
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
  std::unique_ptr<OfferingService> service_;
};

TEST_F(OfferingServiceTest, WireRoundTripServesTable) {
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{});
  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  auto reply = HandleWire(server, 7, EncodeOfferingRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto table = DecodeOfferingTable(reply.value());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().size(), 3u);
  EXPECT_EQ(server.Stats().served, 1u);
  EXPECT_EQ(server.Stats().malformed, 0u);
}

TEST_F(OfferingServiceTest, WireMatchesInProcessRanking) {
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{});
  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  auto reply = HandleWire(server, 1, EncodeOfferingRequest(request));
  ASSERT_TRUE(reply.ok());
  auto via_wire = DecodeOfferingTable(reply.value()).MoveValueUnsafe();
  // A different client gets its own ranker but the same deterministic
  // answer for the same state.
  OfferingTable direct = service_->Rank(2, states_[0], 3);
  EXPECT_EQ(via_wire.ChargerIds(), direct.ChargerIds());
}

TEST_F(OfferingServiceTest, MalformedRequestCounted) {
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{});
  auto reply = HandleWire(server, 7, "garbage");
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(server.Stats().malformed, 1u);
  EXPECT_EQ(server.Stats().cache_adaptations, 0u);
  EXPECT_EQ(server.Stats().degraded_tables, 0u);
}

TEST_F(OfferingServiceTest, PerClientCachesAreIsolated) {
  // Client A queries twice from the same spot: second is adapted. Client
  // B's first query from that spot must NOT be adapted (it has no cache).
  VehicleState s0 = states_[0];
  service_->Rank(100, s0, 3);
  VehicleState s1 = s0;
  s1.time += 60.0;
  OfferingTable a2 = service_->Rank(100, s1, 3);
  EXPECT_TRUE(a2.adapted_from_cache);
  OfferingTable b1 = service_->Rank(200, s1, 3);
  EXPECT_FALSE(b1.adapted_from_cache);
  EXPECT_EQ(service_->active_clients(), 2u);
  EXPECT_EQ(service_->stats().cache_adaptations, 1u);
}

TEST_F(OfferingServiceTest, IdleClientsEvicted) {
  service_->Rank(1, states_[0], 3);
  VehicleState later = states_[0];
  later.time += 3.0 * kSecondsPerHour;
  service_->Rank(2, later, 3);
  EXPECT_EQ(service_->active_clients(), 2u);
  service_->EvictIdleClients(later.time);
  EXPECT_EQ(service_->active_clients(), 1u);
}

}  // namespace
}  // namespace ecocharge
