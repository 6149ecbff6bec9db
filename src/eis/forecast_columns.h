#ifndef ECOCHARGE_EIS_FORECAST_COLUMNS_H_
#define ECOCHARGE_EIS_FORECAST_COLUMNS_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/simtime.h"
#include "eis/cache_stats.h"
#include "energy/charger.h"
#include "obs/metrics.h"

namespace ecocharge {

/// \brief Outer key of one forecast column: everything a response depends
/// on except the charger (or road class) it is about.
struct ColumnKey {
  uint64_t issue_bucket = 0;   ///< 15-minute bucket of the request time
  uint64_t target_bucket = 0;  ///< 15-minute bucket of the arrival time
  uint64_t revision = 0;       ///< source revision + 1; 0 without a scope
  uint64_t window_bits = 0;    ///< weather: bit pattern of the charge window

  bool operator==(const ColumnKey&) const = default;
};

/// The slot a Resolve candidate reads: arrival bucket and charger id (for
/// traffic, the road class).
struct SlotKey {
  uint64_t target_bucket = 0;
  ChargerId id = 0;
};

/// Per-candidate progress of one ForecastColumns::Resolve call. Callers
/// own the lane (one entry per candidate) so a warm call allocates nothing.
enum class SlotClaim : uint8_t {
  kOpen,     ///< not yet served (another claim is pending): probe again
  kAbsent,   ///< claimed by this call (a miss); no value was cached
  kStale,    ///< claimed by this call (a miss and an expiration); the
             ///< expired value sits in out[i]
  kFetched,  ///< the upstream answered; publish the value
  kFailed,   ///< the upstream failed; release the claim
  kDone,     ///< out[i] holds the answer
};

/// \brief Dense response columns of one EIS source — the store behind the
/// weather (L), availability (A) and traffic (D) forecasts.
///
/// Every key maps to a column of slots indexed by charger id, so a fresh
/// request's ~1000 lookups are array reads under two lock holds instead of
/// ~1000 hashed, individually locked probes. A slot holds {value,
/// inserted_at, present, pending}; it is fresh while
/// `now - inserted_at <= ttl` — the exact deadline is a hit, and so is a
/// negative age — and an expired slot counts one expiration plus one
/// miss. Traffic columns are indexed by road class, so each holds at most
/// three slots.
///
/// Memory is bounded by about `max_slots` allocated slots: a column's
/// dense array grows to the largest id put into it, ids at or beyond
/// `max_slots` go to the column's small sparse map (so a stray huge id
/// never allocates in proportion to itself), and a claim into a store at
/// its budget first drops every column whose newest slot has expired,
/// then — if that is not enough — every column, sparing columns with a
/// pending claim. When concurrent claims pin more than the budget, the
/// next sweep waits until the store has grown by another eighth of it.
///
/// Thread safety: one mutex guards the store but is never held across an
/// upstream call. Resolve (1) under the lock serves fresh slots and marks
/// absent or expired ones *pending*, claimed by this call; (2) unlocks and
/// fetches its claims; (3) relocks, publishes the fetched values, releases
/// failed claims and wakes waiters. A call meeting another call's pending
/// slot probes it again after publishing its own claims or, holding none,
/// sleeps until some call publishes. So no slot is fetched twice while a
/// fetch for it is in flight, a failed fetch frees the slot for the next
/// prober, and a waiter holds no claim, so waits cannot cycle. Counters
/// are relaxed atomics added once per call.
template <typename Value>
class ForecastColumns {
  struct Slot;
  struct Column;

 public:
  ForecastColumns(double ttl_seconds, size_t max_slots)
      : ttl_seconds_(ttl_seconds), max_slots_(max_slots),
        evict_at_(max_slots) {}

  /// Resolves out[i], i < claims.size(), from slot `key_of(i)` of the
  /// columns sharing `base`'s issue bucket, revision and window, at `now`.
  /// A fresh slot is served; otherwise `fetch(i, target_bucket)` (a
  /// Result<Value>) runs once for the slot and is stored on success, and on
  /// failure `degrade(i, stale_or_null)` supplies out[i]. `claims` is
  /// caller-owned scratch. Alone, this makes the probes, upstream calls and
  /// counts of the loop "probe; on a miss fetch and store": a candidate
  /// repeating an earlier slot waits for its publish and is then a hit.
  template <typename KeyOf, typename Fetch, typename Degrade>
  void Resolve(const ColumnKey& base, SimTime now,
               std::span<SlotClaim> claims, Value* out, KeyOf&& key_of,
               Fetch&& fetch, Degrade&& degrade) {
    Batch batch(this, base, now);
    for (size_t open = claims.size(), round = 0; open > 0; ++round) {
      // 1. Serve fresh slots, claim absent or expired ones (the first
      //    round probes every candidate).
      size_t claimed = 0;
      for (size_t i = 0; i < claims.size(); ++i) {
        if (round > 0 && claims[i] != SlotClaim::kOpen) continue;
        const SlotKey key = key_of(i);
        const SlotClaim claim = batch.Claim(key.target_bucket, key.id, &out[i]);
        claims[i] = claim;
        if (claim == SlotClaim::kDone) {
          --open;
        } else if (claim != SlotClaim::kOpen) {
          ++claimed;
        } else if (batch.over_budget()) {
          // Probe this and the rest next round; in the first round the
          // rest has no state yet.
          if (round == 0) {
            std::fill(claims.begin() + i + 1, claims.end(), SlotClaim::kOpen);
          }
          break;
        }
      }
      if (claimed == 0) {
        // Every open slot is another call's claim.
        if (open > 0) batch.AwaitPublish();
        continue;
      }
      // 2. Fetch the claimed slots with the store unlocked.
      batch.Unlock();
      for (size_t i = 0; i < claims.size(); ++i) {
        const SlotClaim claim = claims[i];
        if (claim != SlotClaim::kAbsent && claim != SlotClaim::kStale) {
          continue;
        }
        auto fetched = fetch(i, key_of(i).target_bucket);
        if (fetched.ok()) {
          out[i] = *fetched;
          claims[i] = SlotClaim::kFetched;
        } else {
          out[i] = degrade(i, claim == SlotClaim::kStale ? &out[i] : nullptr);
          claims[i] = SlotClaim::kFailed;
        }
      }
      batch.Lock();
      // 3. Publish the fetched values, release the failed claims.
      for (size_t i = 0; i < claims.size(); ++i) {
        const SlotClaim claim = claims[i];
        if (claim != SlotClaim::kFetched && claim != SlotClaim::kFailed) {
          continue;
        }
        const SlotKey key = key_of(i);
        batch.Publish(key.target_bucket, key.id,
                      claim == SlotClaim::kFetched ? &out[i] : nullptr);
        claims[i] = SlotClaim::kDone;
        --open;
      }
      batch.EndRound();
    }
  }

  /// Counter snapshot (by value; safe to call concurrently with traffic).
  CacheStats stats() const { return stats_.Snapshot(); }

  /// Mirrors hits/misses/expirations onto registry-owned counters, in
  /// addition to stats(), so a statsz export sees live cache rates. Null
  /// detaches. Wire before serving traffic starts; the counters must
  /// outlive the store's use of them.
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

  /// Resolve calls asleep until another call publishes its claims.
  size_t waiters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiters_;
  }

 private:
  struct Slot {
    Value value{};
    SimTime inserted_at = 0.0;
    bool present = false;
    bool pending = false;  ///< claimed: a fetch for it is in flight
  };

  struct Column {
    std::vector<Slot> dense;  ///< indexed by charger id, id < max_slots
    std::unordered_map<ChargerId, Slot> sparse;  ///< ids >= max_slots
    SimTime newest = 0.0;  ///< latest inserted_at of any slot
    size_t claims = 0;     ///< pending slots; a claimed column is not evicted

    Slot* Find(ChargerId id, size_t max_slots) {
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

  /// One Resolve call's hold on the store: the lock (released around
  /// fetches), the column family, and the call's counters.
  class Batch {
   public:
    Batch(ForecastColumns* store, const ColumnKey& base, SimTime now)
        : store_(store), lock_(store->mu_), base_(base), now_(now) {}

    ~Batch() { store_->Count(hits_, misses_, expirations_); }

    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void Lock() { lock_.lock(); }
    void Unlock() { lock_.unlock(); }

    /// Probes slot (target_bucket, id): kDone (a fresh hit, in `*out`),
    /// kOpen (nothing counted: another claim is pending, or the store is
    /// at its budget while this call holds claims — see over_budget()), or
    /// kAbsent / kStale (the slot is now claimed; the expired value is in
    /// `*out`).
    SlotClaim Claim(uint64_t target_bucket, ChargerId id, Value* out) {
      Slot* slot = nullptr;
      if (Column* col = ColumnFor(target_bucket, /*create=*/false)) {
        slot = col->Find(id, store_->max_slots_);
      }
      if (slot != nullptr && slot->pending) return SlotClaim::kOpen;
      if (slot != nullptr && slot->present) {
        *out = slot->value;
        if (now_ - slot->inserted_at <= store_->ttl_seconds_) {
          ++hits_;
          return SlotClaim::kDone;
        }
        return ClaimMiss(target_bucket, id, SlotClaim::kStale);
      }
      return ClaimMiss(target_bucket, id, SlotClaim::kAbsent);
    }

    /// The miss half of Claim, kept out of the hit path.
    SlotClaim ClaimMiss(uint64_t target_bucket, ChargerId id,
                        SlotClaim claim) {
      // A miss at the budget evicts before its slot is allocated, as the
      // loop "probe; on a miss fetch and store" does before storing. That
      // sweep sees every earlier candidate's value stored, so a call
      // holding the store's only claims ends its round first and probes
      // this slot again. Other calls' claims pin their columns anyway.
      if (store_->slots_ >= store_->evict_at_) {
        if (held_ > 0 && held_ == store_->claims_) {
          over_budget_ = true;
          return SlotClaim::kOpen;
        }
        store_->Evict(now_);
      }
      ++misses_;
      if (claim == SlotClaim::kStale) ++expirations_;
      Column* col = ColumnFor(target_bucket, /*create=*/true);
      col->SlotFor(id, store_).pending = true;
      ++col->claims;
      ++store_->claims_;
      ++held_;
      return claim;
    }

    /// True once a Claim was refused for the budget; Resolve then ends
    /// the round's probing. EndRound resets it.
    bool over_budget() const { return over_budget_; }

    /// Ends this call's claim on slot (target_bucket, id): stores `*value`
    /// stamped at `now`, or leaves the slot as it was when `value` is null
    /// (a failed fetch).
    void Publish(uint64_t target_bucket, ChargerId id, const Value* value) {
      Column* col = ColumnFor(target_bucket, /*create=*/false);
      Slot* slot = col->Find(id, store_->max_slots_);
      slot->pending = false;
      --col->claims;
      --store_->claims_;
      --held_;
      if (value == nullptr) return;
      slot->value = *value;
      slot->inserted_at = now_;
      slot->present = true;
      if (now_ > col->newest) col->newest = now_;
    }

    /// Ends a round of publishes: wakes the calls waiting for one.
    void EndRound() {
      over_budget_ = false;
      ++store_->publishes_;
      if (store_->waiters_ > 0) store_->published_.notify_all();
    }

    /// Sleeps until some call publishes a round.
    void AwaitPublish() {
      const uint64_t seen = store_->publishes_;
      ++store_->waiters_;
      store_->published_.wait(lock_,
                              [&] { return store_->publishes_ != seen; });
      --store_->waiters_;
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
    std::unique_lock<std::mutex> lock_;
    ColumnKey base_;
    SimTime now_;
    Memo memo_[kMemoSize];
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t expirations_ = 0;
    size_t held_ = 0;  ///< claims this call holds
    bool over_budget_ = false;
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
    // Sweep fully expired columns first; drop every column only if that
    // frees nothing below the budget. Claimed columns stay either way.
    // Memoized column pointers are void after any sweep.
    ++epoch_;
    auto sweep = [this](auto&& drop) {
      for (auto it = columns_.begin(); it != columns_.end();) {
        const Column& col = *it->second;
        if (col.claims == 0 && drop(col)) {
          slots_ -= col.dense.size() + col.sparse.size();
          it = columns_.erase(it);
        } else {
          ++it;
        }
      }
    };
    sweep([&](const Column& col) { return now - col.newest > ttl_seconds_; });
    if (slots_ >= max_slots_) sweep([](const Column&) { return true; });
    // When claimed columns alone fill the budget, sweeping again before
    // the store grows by another eighth of it would free nothing.
    evict_at_ = slots_ < max_slots_ ? max_slots_ : slots_ + max_slots_ / 8;
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
  std::condition_variable published_;  ///< signalled by EndRound
  uint64_t publishes_ = 0;  ///< rounds published; AwaitPublish's predicate
  size_t waiters_ = 0;      ///< calls inside AwaitPublish
  std::unordered_map<ColumnKey, std::unique_ptr<Column>, KeyHash> columns_;
  size_t slots_ = 0;    ///< allocated slots across columns (dense + sparse)
  size_t evict_at_;     ///< slot count that triggers the next Evict
  size_t claims_ = 0;   ///< pending slots across columns
  uint64_t epoch_ = 0;  ///< bumped by Evict: invalidates Batch memos
  AtomicCacheStats stats_;
  obs::Counter* hits_mirror_ = nullptr;
  obs::Counter* misses_mirror_ = nullptr;
  obs::Counter* expirations_mirror_ = nullptr;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_EIS_FORECAST_COLUMNS_H_
