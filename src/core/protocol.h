#ifndef ECOCHARGE_CORE_PROTOCOL_H_
#define ECOCHARGE_CORE_PROTOCOL_H_

#include <string>

#include "common/result.h"
#include "core/offering_table.h"
#include "core/vehicle_state.h"

namespace ecocharge {

/// \brief Mode 2 wire protocol: the client ships its vehicle state, the
/// EIS replies with an Offering Table.
///
/// The encoding is a line-oriented text format (one `key value...` pair
/// per line, terminated by `end`), chosen for debuggability — the real
/// deployment the paper describes used HTTP+JSON through Nginx; the
/// semantics, not the syntax, are what the library reproduces.
struct OfferingRequest {
  VehicleState state;
  size_t k = 3;
};

/// Bounds DecodeOfferingRequest enforces on the untrusted numeric fields.
/// Past them the estimator's arithmetic breaks: a time or an ETA beyond
/// ~1.7e22 s overflows the EIS's integer time buckets, and a huge charge
/// window makes the energy integration loop practically forever.
inline constexpr double kMaxWireTimeS = 1e9;        ///< ~31.7 years
inline constexpr double kMaxWireWindowS = 86400.0;  ///< one day
inline constexpr double kMaxWireCoordinateM = 1e8;  ///< 100,000 km

/// Serializes a request to the wire format.
std::string EncodeOfferingRequest(const OfferingRequest& request);

/// Parses a request; rejects malformed or incomplete messages (IOError)
/// and non-finite or out-of-range time, window and point coordinates
/// (OutOfRange).
Result<OfferingRequest> DecodeOfferingRequest(const std::string& wire);

/// Serializes an Offering Table (the response).
std::string EncodeOfferingTable(const OfferingTable& table);

/// Parses an Offering Table.
Result<OfferingTable> DecodeOfferingTable(const std::string& wire);

}  // namespace ecocharge

#endif  // ECOCHARGE_CORE_PROTOCOL_H_
