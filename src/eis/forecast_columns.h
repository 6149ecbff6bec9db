#ifndef ECOCHARGE_EIS_FORECAST_COLUMNS_H_
#define ECOCHARGE_EIS_FORECAST_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/simtime.h"
#include "eis/ttl_cache.h"
#include "energy/charger.h"
#include "obs/metrics.h"

namespace ecocharge {

/// \brief Outer key of one forecast column: everything a per-charger
/// forecast depends on except the charger itself.
struct ColumnKey {
  uint64_t issue_bucket = 0;   ///< 15-minute bucket of the request time
  uint64_t target_bucket = 0;  ///< 15-minute bucket of the arrival time
  uint64_t revision = 0;       ///< source revision + 1; 0 without a scope
  uint64_t window_bits = 0;    ///< weather: bit pattern of the charge window

  bool operator==(const ColumnKey&) const = default;
};

/// Outcome of one slot probe (GetAllowStale semantics: a stale slot is
/// reported, and its value returned, but never erased).
enum class SlotProbe : uint8_t { kAbsent, kFresh, kStale };

/// \brief Dense per-charger response columns of one EIS source — the
/// store behind the weather (L) and availability (A) forecasts.
///
/// Every key maps to a column of slots indexed by charger id, so a fresh
/// request's ~1000 lookups are array reads under one lock hold instead of
/// ~1000 hashed, individually locked probes. A slot holds {value,
/// inserted_at, present}; it is fresh while `now - inserted_at <= ttl` —
/// the same strict `age > ttl` boundary TtlCache pins — and an expired
/// slot counts one expiration plus one miss, exactly as the per-key cache
/// counts it, so hit rates are unchanged for the same lookup sequence.
///
/// Memory is bounded by about `max_slots` allocated slots: a column's
/// dense array grows to the largest id put into it, ids at or beyond
/// `max_slots` go to the column's small sparse map (so a stray huge id
/// never allocates in proportion to itself), and a put into a store at
/// its budget first drops every column whose newest slot has expired,
/// then — if that is not enough — every column, the policy TtlCache::Put
/// applies per shard.
///
/// Thread safety: one mutex guards the whole store. A Batch holds it for
/// its lifetime, including the upstream calls it makes for misses, so two
/// workers never fetch the same slot twice; counters are relaxed atomics
/// added once per batch.
template <typename Value>
class ForecastColumns {
  struct Slot;
  struct Column;

 public:
  ForecastColumns(double ttl_seconds, size_t max_slots)
      : ttl_seconds_(ttl_seconds), max_slots_(max_slots) {}

  /// One lock hold over the columns sharing `base`'s issue bucket,
  /// revision and window; probes and puts name the target bucket and the
  /// charger id.
  class Batch {
   public:
    Batch(ForecastColumns* store, const ColumnKey& base, SimTime now)
        : store_(store), lock_(store->mu_), base_(base), now_(now) {}

    ~Batch() { store_->Count(hits_, misses_, expirations_); }

    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Probes slot (target_bucket, id); fills `*out` unless kAbsent.
    SlotProbe Find(uint64_t target_bucket, ChargerId id, Value* out) {
      const Slot* slot = nullptr;
      if (Column* col = ColumnFor(target_bucket, /*create=*/false)) {
        slot = col->Find(id, store_->max_slots_);
      }
      if (slot == nullptr || !slot->present) {
        ++misses_;
        return SlotProbe::kAbsent;
      }
      *out = slot->value;
      if (now_ - slot->inserted_at > store_->ttl_seconds_) {
        ++expirations_;
        ++misses_;
        return SlotProbe::kStale;
      }
      ++hits_;
      return SlotProbe::kFresh;
    }

    /// Stores `value` in slot (target_bucket, id), stamped at `now`.
    void Put(uint64_t target_bucket, ChargerId id, const Value& value) {
      if (store_->slots_ >= store_->max_slots_) store_->Evict(now_);
      Column* col = ColumnFor(target_bucket, /*create=*/true);
      Slot& slot = col->SlotFor(id, store_);
      slot = Slot{value, now_, true};
      if (now_ > col->newest) col->newest = now_;
    }

   private:
    Column* ColumnFor(uint64_t target_bucket, bool create) {
      // Candidates of one request spread over a handful of arrival
      // buckets; a direct-mapped memo keeps the hashed column lookup off
      // the per-candidate path.
      Memo& memo = memo_[target_bucket % kMemoSize];
      if (memo.column != nullptr && memo.bucket == target_bucket &&
          memo.epoch == store_->epoch_) {
        return memo.column;
      }
      ColumnKey key = base_;
      key.target_bucket = target_bucket;
      Column* col = create ? store_->FindOrCreate(key)
                           : store_->FindColumn(key);
      if (col != nullptr) memo = Memo{col, target_bucket, store_->epoch_};
      return col;
    }

    static constexpr size_t kMemoSize = 8;
    struct Memo {
      Column* column = nullptr;
      uint64_t bucket = 0;
      uint64_t epoch = 0;
    };

    ForecastColumns* store_;
    std::lock_guard<std::mutex> lock_;
    ColumnKey base_;
    SimTime now_;
    Memo memo_[kMemoSize];
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t expirations_ = 0;
  };

  /// Counter snapshot (by value; safe to call concurrently with traffic).
  CacheStats stats() const { return stats_.Snapshot(); }

  /// Mirrors hits/misses/expirations onto registry-owned counters (null
  /// detaches), like TtlCache::AttachCounters.
  void AttachCounters(obs::Counter* hits, obs::Counter* misses,
                      obs::Counter* expirations) {
    hits_mirror_ = hits;
    misses_mirror_ = misses;
    expirations_mirror_ = expirations;
  }

  /// Slots currently allocated across all columns (the bounded quantity).
  size_t allocated_slots() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_;
  }

  size_t num_columns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return columns_.size();
  }

 private:
  struct Slot {
    Value value{};
    SimTime inserted_at = 0.0;
    bool present = false;
  };

  struct Column {
    std::vector<Slot> dense;  ///< indexed by charger id, id < max_slots
    std::unordered_map<ChargerId, Slot> sparse;  ///< ids >= max_slots
    SimTime newest = 0.0;  ///< latest inserted_at of any slot

    const Slot* Find(ChargerId id, size_t max_slots) const {
      if (id < max_slots) return id < dense.size() ? &dense[id] : nullptr;
      auto it = sparse.find(id);
      return it == sparse.end() ? nullptr : &it->second;
    }

    Slot& SlotFor(ChargerId id, ForecastColumns* store) {
      if (id < store->max_slots_) {
        if (id >= dense.size()) {
          store->slots_ += id + 1 - dense.size();
          dense.resize(id + 1);
        }
        return dense[id];
      }
      auto [it, inserted] = sparse.try_emplace(id);
      if (inserted) ++store->slots_;
      return it->second;
    }
  };

  struct KeyHash {
    size_t operator()(const ColumnKey& k) const {
      uint64_t h = k.issue_bucket * 0x9E3779B97F4A7C15ULL;
      h ^= (k.target_bucket + 0xC2B2AE3D27D4EB4FULL) * 0xBF58476D1CE4E5B9ULL;
      h ^= (k.revision + 0x165667B19E3779F9ULL) * 0x94D049BB133111EBULL;
      h ^= k.window_bits * 0xD6E8FEB86659FD93ULL;
      return static_cast<size_t>(h ^ (h >> 31));
    }
  };

  Column* FindColumn(const ColumnKey& key) {
    auto it = columns_.find(key);
    return it == columns_.end() ? nullptr : it->second.get();
  }

  Column* FindOrCreate(const ColumnKey& key) {
    if (Column* col = FindColumn(key)) return col;
    return columns_.emplace(key, std::make_unique<Column>())
        .first->second.get();
  }

  void Evict(SimTime now) {
    // Sweep fully expired columns first; clear only if that frees nothing
    // below the budget. Either way memoized column pointers are void.
    ++epoch_;
    for (auto it = columns_.begin(); it != columns_.end();) {
      if (now - it->second->newest > ttl_seconds_) {
        slots_ -= it->second->dense.size() + it->second->sparse.size();
        it = columns_.erase(it);
      } else {
        ++it;
      }
    }
    if (slots_ >= max_slots_) {
      columns_.clear();
      slots_ = 0;
    }
  }

  void Count(uint64_t hits, uint64_t misses, uint64_t expirations) {
    stats_.Add(hits, misses, expirations);
    if (hits_mirror_ && hits) hits_mirror_->Add(hits);
    if (misses_mirror_ && misses) misses_mirror_->Add(misses);
    if (expirations_mirror_ && expirations) {
      expirations_mirror_->Add(expirations);
    }
  }

  double ttl_seconds_;
  size_t max_slots_;
  mutable std::mutex mu_;
  std::unordered_map<ColumnKey, std::unique_ptr<Column>, KeyHash> columns_;
  size_t slots_ = 0;    ///< allocated slots across columns (dense + sparse)
  uint64_t epoch_ = 0;  ///< bumped by Evict: invalidates Batch memos
  AtomicCacheStats stats_;
  obs::Counter* hits_mirror_ = nullptr;
  obs::Counter* misses_mirror_ = nullptr;
  obs::Counter* expirations_mirror_ = nullptr;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_EIS_FORECAST_COLUMNS_H_
