#ifndef ECOCHARGE_ENERGY_CHARGER_H_
#define ECOCHARGE_ENERGY_CHARGER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/road_network.h"

namespace ecocharge {

using ChargerId = uint32_t;

/// \brief Charger hardware tiers (PlugShare-style mix).
enum class ChargerType : uint8_t {
  kAc11 = 0,   ///< 11 kW AC
  kAc22 = 1,   ///< 22 kW AC
  kDc50 = 2,   ///< 50 kW DC
  kDc150 = 3,  ///< 150 kW DC fast
};

std::string_view ChargerTypeName(ChargerType type);

/// Maximum delivery rate of a charger type, kW (inline: the bound stage
/// of the CkNN-EC filter reads it once per candidate).
inline double ChargerRateKw(ChargerType type) {
  switch (type) {
    case ChargerType::kAc11:
      return 11.0;
    case ChargerType::kAc22:
      return 22.0;
    case ChargerType::kDc50:
      return 50.0;
    case ChargerType::kDc150:
      return 150.0;
  }
  return 11.0;
}

/// \brief One public charging site linked to a renewable source.
struct EvCharger {
  ChargerId id = 0;
  NodeId node = 0;            ///< network node the site sits on
  Point position;             ///< cached node coordinate
  ChargerType type = ChargerType::kAc11;
  int num_ports = 2;          ///< simultaneous vehicles served
  double pv_capacity_kw = 30.0;  ///< attached solar capacity (carport/farm)
  uint32_t timetable_id = 0;  ///< index into the availability archetypes

  double RateKw() const { return ChargerRateKw(type); }
};

/// \brief Generation knobs for a charger fleet.
struct ChargerFleetOptions {
  size_t num_chargers = 1000;  ///< paper: >1,000 sites (PlugShare/CDGS)
  double dc_fraction = 0.30;   ///< share of DC sites
  double min_pv_kw = 5.0;
  double max_pv_kw = 150.0;
  uint64_t seed = 11;
};

/// Places chargers on distinct random network nodes with type/PV mixes per
/// `options`. Fails if the network has fewer nodes than chargers requested
/// (then chargers share nodes instead, which is allowed — real sites do).
Result<std::vector<EvCharger>> GenerateChargerFleet(
    const RoadNetwork& network, const ChargerFleetOptions& options);

}  // namespace ecocharge

#endif  // ECOCHARGE_ENERGY_CHARGER_H_
