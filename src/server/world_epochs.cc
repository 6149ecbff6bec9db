#include "server/world_epochs.h"

#include <thread>

namespace ecocharge {

WorldEpochs::WorldEpochs(size_t max_readers)
    : pins_(max_readers == 0 ? 1 : max_readers) {
  // Epoch 0 is the reserved "unpinned" sentinel; the initial snapshot is
  // epoch 1 so a pin value is never ambiguous.
  slots_[1 % kSlots].epoch = 1;
  current_.store(1, std::memory_order_seq_cst);
}

WorldEpochs::ReaderPin WorldEpochs::Pin(size_t reader) {
  std::atomic<uint64_t>& pin = pins_[reader].epoch;
  uint64_t epoch = current_.load(std::memory_order_seq_cst);
  for (;;) {
    pin.store(epoch, std::memory_order_seq_cst);
    uint64_t recheck = current_.load(std::memory_order_seq_cst);
    if (recheck == epoch) break;
    // A writer published between our load and our pin store; it may have
    // missed the pin when it swept the array, so the slot of `epoch` is
    // not guaranteed stable. Re-pin the newer epoch (the writer cannot
    // reuse ITS slot until it observes this pin move past it).
    epoch = recheck;
  }
  return ReaderPin(this, reader, &slots_[epoch % kSlots]);
}

void WorldEpochs::Unpin(size_t reader) {
  pins_[reader].epoch.store(kUnpinned, std::memory_order_release);
}

WorldEpochs::ReaderPin::~ReaderPin() {
  if (epochs_) epochs_->Unpin(reader_);
}

void WorldEpochs::Publish(SimTime now,
                          const std::function<void(WorldSnapshot*)>& mutate) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  uint64_t cur = current_.load(std::memory_order_seq_cst);
  uint64_t next = cur + 1;
  WorldSnapshot& slot = slots_[next % kSlots];
  // The slot we are about to overwrite last held epoch `next - kSlots`
  // (when next > kSlots). Readers can only be pinned to epochs in
  // (next - kSlots, next] once that epoch was superseded, so waiting for
  // pins <= next - kSlots is exactly "the last reader of this slot has
  // drained". With kSlots versions in flight this wait is almost never
  // taken: a reader must survive kSlots consecutive publishes.
  if (next > kSlots) {
    uint64_t retiring = next - kSlots;
    for (const PinSlot& p : pins_) {
      while (true) {
        uint64_t pinned = p.epoch.load(std::memory_order_seq_cst);
        if (pinned == kUnpinned || pinned > retiring) break;
        std::this_thread::yield();
      }
    }
  }
  slot = slots_[cur % kSlots];
  slot.epoch = next;
  slot.published_at = now;
  mutate(&slot);
  slot.epoch = next;  // epoch assignment is not the mutator's to change
  current_.store(next, std::memory_order_seq_cst);
}

}  // namespace ecocharge
