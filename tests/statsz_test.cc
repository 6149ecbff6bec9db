#include "obs/statsz.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "server/offering_server.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using obs::MetricsRegistry;
using obs::StatszJson;
using obs::StatszText;
using testing_util::TinyEnvironment;
using testing_util::TinyWorkload;

/// Minimal extractor for the flat statsz JSON: returns the numeric token
/// following `"key": `, searching from `from`. Fails the test when absent.
double JsonNumber(const std::string& json, const std::string& key,
                  size_t from = 0) {
  std::string needle = "\"" + key + "\": ";
  size_t pos = json.find(needle, from);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return -1.0;
  return std::stod(json.substr(pos + needle.size()));
}

/// Position of a histogram's object (after `"name": {`), for scoping
/// field lookups to that histogram.
size_t JsonObjectStart(const std::string& json, const std::string& name) {
  std::string needle = "\"" + name + "\": {";
  size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing histogram " << name;
  return pos == std::string::npos ? 0 : pos + needle.size();
}

TEST(StatszTest, TextListsAllKinds) {
  MetricsRegistry registry(1);
  registry.GetCounter("demo.hits")->Add(3);
  registry.GetCounter("demo.misses")->Add(1);
  registry.GetGauge("demo.depth")->Set(5);
  registry.GetHistogram("demo.lat", "ns")->Record(1000);
  std::string text = StatszText(registry);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("demo.hits"), std::string::npos);
  EXPECT_NE(text.find("rate"), std::string::npos);
  EXPECT_NE(text.find("demo.hit_rate"), std::string::npos);
  EXPECT_NE(text.find("0.75"), std::string::npos);
  EXPECT_NE(text.find("gauge"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
  EXPECT_NE(text.find("unit=ns"), std::string::npos);
}

TEST(StatszTest, JsonShapeAndValues) {
  MetricsRegistry registry(1);
  registry.GetCounter("c.hits")->Add(9);
  registry.GetCounter("c.misses")->Add(1);
  registry.GetGauge("g")->Set(-4);
  obs::Histogram* h = registry.GetHistogram("lat", "ns");
  for (int i = 1; i <= 100; ++i) h->Record(static_cast<uint64_t>(i));
  std::string json = StatszJson(registry);

  for (const char* section : {"counters", "gauges", "rates", "histograms"}) {
    EXPECT_NE(json.find(std::string("\"") + section + "\": {"),
              std::string::npos);
  }
  EXPECT_EQ(JsonNumber(json, "c.hits"), 9.0);
  EXPECT_EQ(JsonNumber(json, "g"), -4.0);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "c.hit_rate"), 0.9);
  size_t lat = JsonObjectStart(json, "lat");
  EXPECT_EQ(JsonNumber(json, "count", lat), 100.0);
  EXPECT_EQ(JsonNumber(json, "min", lat), 1.0);
  EXPECT_EQ(JsonNumber(json, "max", lat), 100.0);
  // Values 1..100: the p50 bucket holds the exact rank-50 sample's bucket
  // lower bound (48 in the log-linear geometry: bucket [48, 52)).
  double p50 = JsonNumber(json, "p50", lat);
  EXPECT_GE(p50, 47.0);
  EXPECT_LE(p50, 50.0);
}

TEST(StatszTest, EmptyRegistryIsValidJson) {
  MetricsRegistry registry(1);
  std::string json = StatszJson(registry);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

TEST(StatszTest, EscapesQuotesAndBackslashes) {
  MetricsRegistry registry(1);
  registry.GetCounter("weird\"name\\here")->Add(1);
  std::string json = StatszJson(registry);
  EXPECT_NE(json.find("weird\\\"name\\\\here"), std::string::npos);
}

// End-to-end: the statsz export of a served OfferingServer carries the
// acceptance-criteria metrics — request-latency percentiles, pipeline
// phase timers, and EIS cache hit rates — with values consistent with the
// served workload.
TEST(StatszTest, OfferingServerExportCarriesServingMetrics) {
  auto env = TinyEnvironment();
  ASSERT_NE(env, nullptr);
  auto states = TinyWorkload(*env, 6);
  ASSERT_GE(states.size(), 2u);

  OfferingServerOptions options;
  options.threads = 2;
  options.queue_depth = 1024;  // nothing shed: served == submitted
  OfferingServer server(env.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  uint64_t submitted = 0;
  for (uint64_t client = 0; client < 4; ++client) {
    for (const VehicleState& state : states) {
      ASSERT_TRUE(
          server.Submit(client, state, 3, [](const OfferingTable&) {}).ok());
      ++submitted;
    }
  }
  server.Drain();
  std::string json = StatszJson(server.metrics());

  EXPECT_EQ(JsonNumber(json, "server.requests.served"),
            static_cast<double>(submitted));
  EXPECT_EQ(JsonNumber(json, "server.requests.accepted"),
            static_cast<double>(submitted));
  EXPECT_EQ(JsonNumber(json, "server.requests.rejected"), 0.0);

  // Latency histogram: every served request recorded, percentiles ordered.
  size_t lat = JsonObjectStart(json, "server.request_latency_ns");
  EXPECT_EQ(JsonNumber(json, "count", lat), static_cast<double>(submitted));
  double p50 = JsonNumber(json, "p50", lat);
  double p95 = JsonNumber(json, "p95", lat);
  double p99 = JsonNumber(json, "p99", lat);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);

  // Pipeline phase timers saw every full regeneration, which records
  // filter and refine once each; a cache hit records neither.
  size_t filter = JsonObjectStart(json, "pipeline.filter_ns");
  size_t refine = JsonObjectStart(json, "pipeline.refine_ns");
  double filter_count = JsonNumber(json, "count", filter);
  double refine_count = JsonNumber(json, "count", refine);
  EXPECT_GT(filter_count, 0.0);
  EXPECT_GE(refine_count, filter_count);
  EXPECT_GT(JsonNumber(json, "pipeline.candidates_scored"), 0.0);

  // EIS cache rates exist and are valid probabilities.
  for (const char* source : {"weather", "availability", "traffic"}) {
    double rate = JsonNumber(
        json, "eis." + std::string(source) + ".cache.hit_rate");
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }

  // The registry counters are the same ones Stats() reads.
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.served, submitted);
  EXPECT_EQ(static_cast<double>(stats.cache_adaptations),
            JsonNumber(json, "server.requests.cache_adaptations"));
  EXPECT_GT(stats.clients, 0);
  EXPECT_EQ(static_cast<double>(stats.clients),
            JsonNumber(json, "server.clients"));
}

}  // namespace
}  // namespace ecocharge
