#ifndef ECOCHARGE_SERVER_WORLD_EPOCHS_H_
#define ECOCHARGE_SERVER_WORLD_EPOCHS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/simtime.h"
#include "eis/world_revisions.h"

namespace ecocharge {

/// \brief One published world version: the upstream revision counters a
/// request serves against, plus bookkeeping for observability.
struct WorldSnapshot {
  uint64_t epoch = 0;            ///< monotonically increasing version
  WorldRevisions revisions;      ///< per-upstream data-set generations
  SimTime published_at = 0.0;    ///< sim time of the publish
};

/// \brief Epoch-based (RCU-style) world-version publication.
///
/// Weather, availability, and traffic refreshes must become visible to
/// the serving fleet without stalling the read path: a worker pins the
/// current snapshot with two atomic stores (no mutex, no CAS loop, no
/// allocation), serves the whole request against that immutable version,
/// and unpins. A writer publishes the next version into a ring of
/// snapshot slots and only ever waits — writer-side — for readers still
/// pinned to the slot it is about to reuse, `kSlots` epochs behind.
///
/// Reclamation protocol (the classic epoch scheme):
///  - Each reader owns one cache-line-aligned pin slot. Pin: load
///    `current`, store it into the pin, re-check `current`; if it moved,
///    retry. The re-check closes the race with a writer that swept the
///    pin array between the reader's load and its pin store (all four
///    accesses are seq_cst, so one of the two sides must observe the
///    other — the Dekker store/load pattern).
///  - A writer (serialized by a mutex among writers only) computes the
///    next epoch, spins until no pin holds the epoch whose slot it must
///    overwrite, installs the new snapshot, then releases it with a
///    seq_cst store of `current`. Readers therefore never observe a slot
///    mid-overwrite: the slot of any pinnable epoch is immutable until
///    the last reader of that epoch drains.
///
/// The snapshot's revisions feed ScopedWorldRevisions, which re-keys the
/// EIS response caches — so "publish a refresh" is one counter bump and
/// one ring write, never a lock sweep over megabytes of cached forecasts.
class WorldEpochs {
 public:
  /// \param max_readers number of distinct pin slots; reader ids passed
  ///   to Pin() must be < max_readers and must not be shared by threads
  ///   that pin concurrently.
  explicit WorldEpochs(size_t max_readers);

  /// RAII epoch pin. Movable so Pin() can return it; not copyable.
  class ReaderPin {
   public:
    ReaderPin(ReaderPin&& o) noexcept
        : epochs_(o.epochs_), reader_(o.reader_), snapshot_(o.snapshot_) {
      o.epochs_ = nullptr;
    }
    ReaderPin(const ReaderPin&) = delete;
    ReaderPin& operator=(const ReaderPin&) = delete;
    ReaderPin& operator=(ReaderPin&&) = delete;
    ~ReaderPin();

    const WorldSnapshot& snapshot() const { return *snapshot_; }

   private:
    friend class WorldEpochs;
    ReaderPin(WorldEpochs* epochs, size_t reader,
              const WorldSnapshot* snapshot)
        : epochs_(epochs), reader_(reader), snapshot_(snapshot) {}

    WorldEpochs* epochs_;
    size_t reader_;
    const WorldSnapshot* snapshot_;
  };

  /// Pins the current world version for reader slot `reader`. Lock-free
  /// and allocation-free; never blocks on a writer.
  ReaderPin Pin(size_t reader);

  /// Publishes the next world version: copies the latest snapshot, lets
  /// `mutate` edit it (bump revisions, stamp `published_at`), and makes
  /// it the current epoch. Serializes with other writers; waits only for
  /// readers pinned `kSlots` epochs behind (i.e. almost never).
  void Publish(SimTime now, const std::function<void(WorldSnapshot*)>& mutate);

  /// The current epoch number (starts at 1 for the initial snapshot).
  uint64_t current_epoch() const {
    return current_.load(std::memory_order_seq_cst);
  }

  size_t max_readers() const { return pins_.size(); }

 private:
  static constexpr size_t kSlots = 8;
  static constexpr uint64_t kUnpinned = 0;

  struct alignas(64) PinSlot {
    std::atomic<uint64_t> epoch{kUnpinned};
  };

  void Unpin(size_t reader);

  WorldSnapshot slots_[kSlots];
  std::atomic<uint64_t> current_;
  std::vector<PinSlot> pins_;
  std::mutex writer_mu_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_SERVER_WORLD_EPOCHS_H_
