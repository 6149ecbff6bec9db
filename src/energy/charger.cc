#include "energy/charger.h"

#include <algorithm>

#include "common/rng.h"

namespace ecocharge {

std::string_view ChargerTypeName(ChargerType type) {
  switch (type) {
    case ChargerType::kAc11:
      return "AC-11kW";
    case ChargerType::kAc22:
      return "AC-22kW";
    case ChargerType::kDc50:
      return "DC-50kW";
    case ChargerType::kDc150:
      return "DC-150kW";
  }
  return "?";
}

Result<std::vector<EvCharger>> GenerateChargerFleet(
    const RoadNetwork& network, const ChargerFleetOptions& options) {
  if (options.num_chargers == 0) {
    return Status::InvalidArgument("num_chargers must be positive");
  }
  if (options.dc_fraction < 0.0 || options.dc_fraction > 1.0) {
    return Status::InvalidArgument("dc_fraction must be in [0, 1]");
  }
  Rng rng(options.seed);
  std::vector<EvCharger> fleet;
  fleet.reserve(options.num_chargers);

  // Draw nodes without replacement while possible, then with replacement
  // (multiple sites on a node are legal).
  std::vector<NodeId> nodes(network.NumNodes());
  for (NodeId v = 0; v < network.NumNodes(); ++v) nodes[v] = v;
  rng.Shuffle(nodes);

  for (size_t i = 0; i < options.num_chargers; ++i) {
    EvCharger c;
    c.id = static_cast<ChargerId>(i);
    c.node = i < nodes.size()
                 ? nodes[i]
                 : static_cast<NodeId>(rng.NextBounded(network.NumNodes()));
    c.position = network.NodePosition(c.node);
    if (rng.NextBool(options.dc_fraction)) {
      c.type = rng.NextBool(0.35) ? ChargerType::kDc150 : ChargerType::kDc50;
      c.num_ports = static_cast<int>(rng.NextInt(2, 8));
    } else {
      c.type = rng.NextBool(0.5) ? ChargerType::kAc22 : ChargerType::kAc11;
      c.num_ports = static_cast<int>(rng.NextInt(1, 4));
    }
    // Heavy-tailed PV sizing: most sites carry modest carport arrays, a
    // few are backed by large farms — so the truly great chargers are
    // rare and the search radius R genuinely matters.
    double u = rng.NextDouble();
    c.pv_capacity_kw =
        options.min_pv_kw +
        (options.max_pv_kw - options.min_pv_kw) * u * u * u;
    // Availability archetype assigned round-robin-with-noise; the
    // availability module defines what each id means.
    c.timetable_id = static_cast<uint32_t>(rng.NextBounded(4));
    fleet.push_back(c);
  }
  return fleet;
}

}  // namespace ecocharge
