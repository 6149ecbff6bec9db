#include "core/protocol.h"

#include <cmath>
#include <sstream>

namespace ecocharge {

namespace {

/// Reads one expected keyword; fails with a uniform message otherwise.
Status Expect(std::istream& is, const std::string& keyword) {
  std::string token;
  if (!(is >> token) || token != keyword) {
    return Status::IOError("expected '" + keyword + "', got '" + token + "'");
  }
  return Status::OK();
}

/// Rejects a non-finite field or one outside [lo, hi].
Status CheckRange(const char* field, double value, double lo, double hi) {
  if (std::isfinite(value) && value >= lo && value <= hi) return Status::OK();
  std::ostringstream os;
  os << field << " " << value << " outside [" << lo << ", " << hi << "]";
  return Status::OutOfRange(os.str());
}

Status CheckPoint(const char* field, const Point& p) {
  ECOCHARGE_RETURN_NOT_OK(
      CheckRange(field, p.x, -kMaxWireCoordinateM, kMaxWireCoordinateM));
  return CheckRange(field, p.y, -kMaxWireCoordinateM, kMaxWireCoordinateM);
}

}  // namespace

std::string EncodeOfferingRequest(const OfferingRequest& request) {
  std::ostringstream os;
  os.precision(17);
  const VehicleState& s = request.state;
  os << "offering_request 1\n";
  os << "k " << request.k << "\n";
  os << "position " << s.position.x << " " << s.position.y << "\n";
  os << "node " << s.node << "\n";
  os << "time " << s.time << "\n";
  os << "return_a " << s.return_point_a.x << " " << s.return_point_a.y << " "
     << s.return_node_a << "\n";
  os << "return_b " << s.return_point_b.x << " " << s.return_point_b.y << " "
     << s.return_node_b << "\n";
  os << "window " << s.charge_window_s << "\n";
  os << "segment " << s.segment_index << "\n";
  os << "trip " << s.trip_id << "\n";
  os << "end\n";
  return os.str();
}

Result<OfferingRequest> DecodeOfferingRequest(const std::string& wire) {
  std::istringstream is(wire);
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "offering_request"));
  int version = 0;
  if (!(is >> version) || version != 1) {
    return Status::IOError("unsupported request version");
  }
  OfferingRequest request;
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "k"));
  if (!(is >> request.k)) return Status::IOError("bad k");
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "position"));
  if (!(is >> request.state.position.x >> request.state.position.y)) {
    return Status::IOError("bad position");
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "node"));
  if (!(is >> request.state.node)) return Status::IOError("bad node");
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "time"));
  if (!(is >> request.state.time)) return Status::IOError("bad time");
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "return_a"));
  if (!(is >> request.state.return_point_a.x >>
        request.state.return_point_a.y >> request.state.return_node_a)) {
    return Status::IOError("bad return_a");
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "return_b"));
  if (!(is >> request.state.return_point_b.x >>
        request.state.return_point_b.y >> request.state.return_node_b)) {
    return Status::IOError("bad return_b");
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "window"));
  if (!(is >> request.state.charge_window_s)) {
    return Status::IOError("bad window");
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "segment"));
  if (!(is >> request.state.segment_index)) {
    return Status::IOError("bad segment");
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "trip"));
  if (!(is >> request.state.trip_id)) return Status::IOError("bad trip");
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "end"));
  const VehicleState& s = request.state;
  ECOCHARGE_RETURN_NOT_OK(CheckRange("time", s.time, 0.0, kMaxWireTimeS));
  ECOCHARGE_RETURN_NOT_OK(
      CheckRange("window", s.charge_window_s, 0.0, kMaxWireWindowS));
  ECOCHARGE_RETURN_NOT_OK(CheckPoint("position", s.position));
  ECOCHARGE_RETURN_NOT_OK(CheckPoint("return_a", s.return_point_a));
  ECOCHARGE_RETURN_NOT_OK(CheckPoint("return_b", s.return_point_b));
  return request;
}

std::string EncodeOfferingTable(const OfferingTable& table) {
  std::ostringstream os;
  os.precision(17);
  os << "offering_table 2\n";
  os << "generated_at " << table.generated_at << "\n";
  os << "location " << table.location.x << " " << table.location.y << "\n";
  os << "segment " << table.segment_index << "\n";
  os << "cached " << (table.adapted_from_cache ? 1 : 0) << "\n";
  os << "degraded " << (table.degraded ? 1 : 0) << "\n";
  os << "entries " << table.entries.size() << "\n";
  for (const OfferingEntry& e : table.entries) {
    os << "entry " << e.charger_id << " " << e.score.sc_min << " "
       << e.score.sc_max << " " << e.ecs.level.lo << " " << e.ecs.level.hi
       << " " << e.ecs.availability.lo << " " << e.ecs.availability.hi << " "
       << e.ecs.derouting.lo << " " << e.ecs.derouting.hi << " " << e.eta_s
       << " " << (e.ecs.degraded ? 1 : 0) << "\n";
  }
  os << "end\n";
  return os.str();
}

Result<OfferingTable> DecodeOfferingTable(const std::string& wire) {
  std::istringstream is(wire);
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "offering_table"));
  // Version 2 added the degradation flags (table line + per-entry field);
  // version 1 tables decode with both flags false.
  int version = 0;
  if (!(is >> version) || version < 1 || version > 2) {
    return Status::IOError("unsupported table version");
  }
  OfferingTable table;
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "generated_at"));
  if (!(is >> table.generated_at)) return Status::IOError("bad timestamp");
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "location"));
  if (!(is >> table.location.x >> table.location.y)) {
    return Status::IOError("bad location");
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "segment"));
  if (!(is >> table.segment_index)) return Status::IOError("bad segment");
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "cached"));
  int cached = 0;
  if (!(is >> cached)) return Status::IOError("bad cached flag");
  table.adapted_from_cache = cached != 0;
  if (version >= 2) {
    ECOCHARGE_RETURN_NOT_OK(Expect(is, "degraded"));
    int degraded = 0;
    if (!(is >> degraded)) return Status::IOError("bad degraded flag");
    table.degraded = degraded != 0;
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "entries"));
  size_t count = 0;
  if (!(is >> count)) return Status::IOError("bad entry count");
  for (size_t i = 0; i < count; ++i) {
    ECOCHARGE_RETURN_NOT_OK(Expect(is, "entry"));
    OfferingEntry e;
    double l_lo, l_hi, a_lo, a_hi, d_lo, d_hi;
    if (!(is >> e.charger_id >> e.score.sc_min >> e.score.sc_max >> l_lo >>
          l_hi >> a_lo >> a_hi >> d_lo >> d_hi >> e.eta_s)) {
      return Status::IOError("bad entry " + std::to_string(i));
    }
    if (version >= 2) {
      int entry_degraded = 0;
      if (!(is >> entry_degraded)) {
        return Status::IOError("bad entry degraded flag " + std::to_string(i));
      }
      e.ecs.degraded = entry_degraded != 0;
    }
    if (l_lo > l_hi || a_lo > a_hi || d_lo > d_hi) {
      return Status::IOError("unordered interval in entry " +
                             std::to_string(i));
    }
    e.ecs.level = Interval{l_lo, l_hi};
    e.ecs.availability = Interval{a_lo, a_hi};
    e.ecs.derouting = Interval{d_lo, d_hi};
    e.ecs.eta_s = e.eta_s;
    table.entries.push_back(e);
  }
  ECOCHARGE_RETURN_NOT_OK(Expect(is, "end"));
  return table;
}

}  // namespace ecocharge
