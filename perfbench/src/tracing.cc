#include "tracing.h"

#include <utility>

namespace perfbench {

using namespace ecocharge;

void TracedSpatialIndex::Build(std::vector<Point> /*points*/) {
  // The decorator wraps an index that is already built; it never rebuilds.
}

void TracedSpatialIndex::KnnInto(const Point& query, size_t k,
                                 IndexScratch* scratch,
                                 std::vector<Neighbor>* out) const {
  inner_->KnnInto(query, k, scratch, out);
}

void TracedSpatialIndex::RangeSearchInto(const Point& query, double radius,
                                         IndexScratch* scratch,
                                         std::vector<Neighbor>* out) const {
  Span span(tracer_, SpanKind::kSpatialRange);
  inner_->RangeSearchInto(query, radius, scratch, out);
  tracer_->range_results += out->size();
}

void TracedSpatialIndex::BoxSearchInto(const BoundingBox& box,
                                       IndexScratch* scratch,
                                       std::vector<uint32_t>* out) const {
  inner_->BoxSearchInto(box, scratch, out);
}

EnergyForecast TracedInformationServer::GetEnergyForecast(
    const EvCharger& charger, SimTime now, SimTime target, double window_s,
    EisFetch* fetch) {
  Span span(tracer_, SpanKind::kEisFetch);
  ++tracer_->weather_fetches;
  return InformationServer::GetEnergyForecast(charger, now, target, window_s,
                                              fetch);
}

AvailabilityForecast TracedInformationServer::GetAvailability(
    const EvCharger& charger, SimTime now, SimTime target, EisFetch* fetch) {
  Span span(tracer_, SpanKind::kEisFetch);
  ++tracer_->availability_fetches;
  return InformationServer::GetAvailability(charger, now, target, fetch);
}

CongestionModel::Band TracedInformationServer::GetTraffic(
    RoadClass road_class, SimTime now, SimTime target, EisFetch* fetch) {
  Span span(tracer_, SpanKind::kEisFetch);
  ++tracer_->traffic_fetches;
  return InformationServer::GetTraffic(road_class, now, target, fetch);
}

}  // namespace perfbench
