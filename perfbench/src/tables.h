// Correctness of served Offering Tables: validation and a run digest.
#ifndef PERFBENCH_TABLES_H_
#define PERFBENCH_TABLES_H_

#include <cstddef>
#include <cstdint>

#include "core/offering_table.h"

namespace perfbench {

/// Folds served tables into an order-sensitive digest and counts the
/// tables that break the Offering Table contract.
class TableLedger {
 public:
  /// Checks `table` (at most `k` entries, best-first order, valid and
  /// unique charger ids below `fleet_size`, finite scores) and folds it
  /// into the digest. Returns false when the table is invalid.
  bool Add(const ecocharge::OfferingTable& table, size_t k,
           size_t fleet_size);

  /// Counts a request whose submission returned a non-OK status.
  void AddFailure() { ++failed_; }

  uint64_t digest() const { return digest_; }
  uint64_t tables() const { return tables_; }
  uint64_t failed() const { return failed_; }

 private:
  void Mix(uint64_t v);

  uint64_t digest_ = 0xCBF29CE484222325ULL;
  uint64_t tables_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TABLES_H_
