#include "tables.h"

#include <cmath>
#include <cstring>

namespace perfbench {

using ecocharge::OfferingEntry;
using ecocharge::OfferingTable;

namespace {

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

bool Finite(const OfferingEntry& e) {
  return std::isfinite(e.score.sc_min) && std::isfinite(e.score.sc_max);
}

// The pipeline's best-first order: descending score midpoint, ties by id.
bool InOrder(const OfferingEntry& a, const OfferingEntry& b) {
  const double ka = a.SortKey();
  const double kb = b.SortKey();
  return ka > kb || (ka == kb && a.charger_id < b.charger_id);
}

}  // namespace

void TableLedger::Mix(uint64_t v) {
  digest_ ^= v;
  digest_ *= 0x100000001B3ULL;
  digest_ ^= digest_ >> 29;
}

bool TableLedger::Add(const OfferingTable& table, size_t k,
                      size_t fleet_size) {
  ++tables_;
  bool ok = table.entries.size() <= k;
  for (size_t i = 0; i < table.entries.size(); ++i) {
    const OfferingEntry& e = table.entries[i];
    ok = ok && e.charger_id < fleet_size && Finite(e);
    for (size_t j = 0; j < i; ++j) {
      ok = ok && table.entries[j].charger_id != e.charger_id;
    }
    if (i > 0) ok = ok && InOrder(table.entries[i - 1], e);
    Mix(e.charger_id);
    Mix(Bits(e.score.sc_min));
    Mix(Bits(e.score.sc_max));
    Mix(Bits(e.eta_s));
  }
  Mix(table.entries.size());
  Mix(table.adapted_from_cache ? 1 : 0);
  if (!ok) ++failed_;
  return ok;
}

}  // namespace perfbench
