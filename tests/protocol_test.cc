#include "core/protocol.h"

#include <gtest/gtest.h>

#include <functional>

#include "server/offering_server.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

OfferingRequest SampleRequest() {
  OfferingRequest r;
  r.k = 5;
  r.state.position = {1234.5, -99.25};
  r.state.node = 42;
  r.state.time = 36000.5;
  r.state.return_point_a = {2000.0, 0.0};
  r.state.return_node_a = 7;
  r.state.return_point_b = {3000.0, 50.0};
  r.state.return_node_b = 8;
  r.state.charge_window_s = 1800.0;
  r.state.segment_index = 3;
  r.state.trip_id = 77;
  return r;
}

OfferingTable SampleTable() {
  OfferingTable t;
  t.generated_at = 36000.5;
  t.location = {1234.5, -99.25};
  t.segment_index = 3;
  t.adapted_from_cache = true;
  OfferingEntry e;
  e.charger_id = 9;
  e.score = ScorePair{0.55, 0.71};
  e.ecs.level = Interval{0.2, 0.4};
  e.ecs.availability = Interval{0.6, 0.9};
  e.ecs.derouting = Interval{0.05, 0.15};
  e.eta_s = 321.0;
  e.ecs.eta_s = 321.0;
  t.entries.push_back(e);
  OfferingEntry e2 = e;
  e2.charger_id = 4;
  e2.score = ScorePair{0.5, 0.6};
  t.entries.push_back(e2);
  return t;
}

TEST(ProtocolTest, RequestRoundTrips) {
  OfferingRequest want = SampleRequest();
  auto got_result = DecodeOfferingRequest(EncodeOfferingRequest(want));
  ASSERT_TRUE(got_result.ok()) << got_result.status();
  const OfferingRequest& got = got_result.value();
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.state.position, want.state.position);
  EXPECT_EQ(got.state.node, want.state.node);
  EXPECT_EQ(got.state.time, want.state.time);
  EXPECT_EQ(got.state.return_point_a, want.state.return_point_a);
  EXPECT_EQ(got.state.return_node_b, want.state.return_node_b);
  EXPECT_EQ(got.state.charge_window_s, want.state.charge_window_s);
  EXPECT_EQ(got.state.segment_index, want.state.segment_index);
  EXPECT_EQ(got.state.trip_id, want.state.trip_id);
}

TEST(ProtocolTest, TableRoundTrips) {
  OfferingTable want = SampleTable();
  auto got_result = DecodeOfferingTable(EncodeOfferingTable(want));
  ASSERT_TRUE(got_result.ok()) << got_result.status();
  const OfferingTable& got = got_result.value();
  EXPECT_EQ(got.generated_at, want.generated_at);
  EXPECT_EQ(got.location, want.location);
  EXPECT_EQ(got.segment_index, want.segment_index);
  EXPECT_EQ(got.adapted_from_cache, want.adapted_from_cache);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < got.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].charger_id, want.entries[i].charger_id);
    EXPECT_EQ(got.entries[i].score.sc_min, want.entries[i].score.sc_min);
    EXPECT_EQ(got.entries[i].score.sc_max, want.entries[i].score.sc_max);
    EXPECT_EQ(got.entries[i].ecs.level, want.entries[i].ecs.level);
    EXPECT_EQ(got.entries[i].ecs.availability,
              want.entries[i].ecs.availability);
    EXPECT_EQ(got.entries[i].ecs.derouting, want.entries[i].ecs.derouting);
    EXPECT_EQ(got.entries[i].eta_s, want.entries[i].eta_s);
  }
}

TEST(ProtocolTest, EmptyTableRoundTrips) {
  OfferingTable want;
  auto got = DecodeOfferingTable(EncodeOfferingTable(want));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
}

TEST(ProtocolTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeOfferingRequest("hello world").ok());
  EXPECT_FALSE(DecodeOfferingTable("offering_request 1").ok());
  EXPECT_FALSE(DecodeOfferingRequest("").ok());
}

TEST(ProtocolTest, RejectsWrongVersion) {
  std::string wire = EncodeOfferingRequest(SampleRequest());
  wire.replace(wire.find(" 1\n"), 3, " 2\n");
  EXPECT_FALSE(DecodeOfferingRequest(wire).ok());
}

TEST(ProtocolTest, RejectsTruncatedRequest) {
  std::string wire = EncodeOfferingRequest(SampleRequest());
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(DecodeOfferingRequest(wire).ok());
}

TEST(ProtocolTest, RejectsUnorderedInterval) {
  OfferingTable t = SampleTable();
  std::string wire = EncodeOfferingTable(t);
  // Swap the level bounds of the first entry by hand.
  size_t pos = wire.find("entry 9");
  ASSERT_NE(pos, std::string::npos);
  // Rebuild a wire with lo > hi by text surgery on the known layout.
  std::string broken = wire;
  broken.replace(broken.find("0.2", pos), 3, "0.9");
  EXPECT_FALSE(DecodeOfferingTable(broken).ok());
}

TEST(ProtocolTest, RejectsTruncatedEntries) {
  OfferingTable t = SampleTable();
  std::string wire = EncodeOfferingTable(t);
  size_t second_entry = wire.rfind("entry ");
  wire.resize(second_entry);
  EXPECT_FALSE(DecodeOfferingTable(wire).ok());
}

/// Wire form of SampleRequest() with one field rewritten by `mutate`.
std::string MutatedWire(const std::function<void(OfferingRequest*)>& mutate) {
  OfferingRequest r = SampleRequest();
  mutate(&r);
  return EncodeOfferingRequest(r);
}

TEST(ProtocolTest, RejectsOutOfRangeTimeWindowAndPoints) {
  const std::vector<std::function<void(OfferingRequest*)>> hostile = {
      [](OfferingRequest* r) { r->state.time = 1e300; },
      [](OfferingRequest* r) { r->state.time = -1.0; },
      [](OfferingRequest* r) { r->state.charge_window_s = 1e300; },
      [](OfferingRequest* r) { r->state.charge_window_s = -60.0; },
      [](OfferingRequest* r) { r->state.position.x = 1e300; },
      [](OfferingRequest* r) { r->state.position.y = -1e300; },
      [](OfferingRequest* r) { r->state.return_point_a.x = 1e300; },
      [](OfferingRequest* r) { r->state.return_point_b.y = 1e300; },
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    auto decoded = DecodeOfferingRequest(MutatedWire(hostile[i]));
    ASSERT_FALSE(decoded.ok()) << "case " << i;
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange)
        << "case " << i << ": " << decoded.status();
  }
  // The bounds themselves are accepted.
  auto edge = DecodeOfferingRequest(MutatedWire([](OfferingRequest* r) {
    r->state.time = kMaxWireTimeS;
    r->state.charge_window_s = kMaxWireWindowS;
    r->state.position = {-kMaxWireCoordinateM, kMaxWireCoordinateM};
  }));
  EXPECT_TRUE(edge.ok()) << edge.status();
}

TEST(ProtocolTest, RejectsNonFiniteFields) {
  std::string wire = EncodeOfferingRequest(SampleRequest());
  for (const char* token : {"nan", "inf", "-inf", "1e400"}) {
    std::string broken = wire;
    size_t pos = broken.find("time ");
    size_t end = broken.find('\n', pos);
    broken.replace(pos, end - pos, std::string("time ") + token);
    EXPECT_FALSE(DecodeOfferingRequest(broken).ok()) << token;
  }
}

TEST(ProtocolTest, HostileRequestIsRejectedBeforeRanking) {
  // End to end through the Mode-2 wire path: the decoder turns the fields
  // that would overflow the EIS time buckets or stall the energy
  // integration into a typed error, and a sane request still ranks.
  auto env = testing_util::TinyEnvironment(30);
  ASSERT_NE(env, nullptr);
  auto states = testing_util::TinyWorkload(*env, 1);
  ASSERT_FALSE(states.empty());
  OfferingServer server(env.get(), ScoreWeights::AWE(), EcoChargeOptions{});
  auto handle = [&](const OfferingRequest& r) {
    Result<std::string> reply = Status::Internal("no reply");
    EXPECT_TRUE(server
                    .SubmitWire(1, EncodeOfferingRequest(r),
                                [&](const Result<std::string>& out) {
                                  reply = out;
                                })
                    .ok());
    return reply;
  };
  OfferingRequest request;
  request.state = states[0];
  for (auto mutate : std::vector<std::function<void(VehicleState*)>>{
           [](VehicleState* s) { s->time = 1e300; },
           [](VehicleState* s) { s->charge_window_s = 1e300; },
           [](VehicleState* s) { s->position = {1e300, 1e300}; }}) {
    OfferingRequest bad = request;
    mutate(&bad.state);
    auto reply = handle(bad);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(server.Stats().malformed, 3u);
  EXPECT_TRUE(handle(request).ok());
}

}  // namespace
}  // namespace ecocharge
