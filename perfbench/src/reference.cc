#include "reference.h"

#include <algorithm>
#include <functional>

namespace perfbench {

namespace {

constexpr size_t kClients = 256;
constexpr size_t kCandidates = 1000;
constexpr size_t kTableSlots = size_t{1} << 18;
constexpr size_t kKeys = kTableSlots / 2;
constexpr size_t kTop = 8;
constexpr auto kInterleave = std::chrono::milliseconds(10);

uint64_t KeyOf(uint64_t i) { return (i + 1) * 0x9E3779B97F4A7C15ULL; }

}  // namespace

Reference::Reference()
    : pool_(kClients * kCandidates),
      table_(kTableSlots, Slot{0, {0.0, 0.0, 0.0}}),
      scratch_(kCandidates),
      scores_(kCandidates) {
  for (Candidate& c : pool_) {
    for (double& f : c.fields) f = static_cast<double>(NextRandom() % 1000);
  }
  for (uint64_t i = 0; i < kKeys; ++i) {
    const uint64_t key = KeyOf(i);
    size_t slot = (key >> 20) & (kTableSlots - 1);
    while (table_[slot].key != 0) slot = (slot + 1) & (kTableSlots - 1);
    table_[slot] = Slot{key, {1.0, static_cast<double>(i % 7), 0.5}};
  }
  last_run_ = std::chrono::steady_clock::now();
}

uint64_t Reference::NextRandom() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

uint64_t Reference::Run() {
  const auto start = std::chrono::steady_clock::now();
  const Candidate* client = &pool_[(NextRandom() % kClients) * kCandidates];
  scratch_.assign(client, client + kCandidates);
  for (size_t i = 0; i < kCandidates; ++i) {
    const uint64_t key = KeyOf(NextRandom() % kKeys);
    size_t slot = (key >> 20) & (kTableSlots - 1);
    while (table_[slot].key != key) slot = (slot + 1) & (kTableSlots - 1);
    const Candidate& c = scratch_[i];
    scores_[i] = c.fields[0] * 0.3 + c.fields[5] * 0.3 +
                 table_[slot].value[1] * c.fields[9];
  }
  std::nth_element(scores_.begin(), scores_.begin() + kTop, scores_.end(),
                   std::greater<double>());
  sink_ += static_cast<uint64_t>(scores_[0]);
  last_run_ = std::chrono::steady_clock::now();
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(last_run_ - start)
          .count());
  samples_us_.push_back(static_cast<double>(ns) * 1e-3);
  return ns;
}

uint64_t Reference::MaybeRun() {
  if (std::chrono::steady_clock::now() - last_run_ < kInterleave) return 0;
  return Run();
}

double Reference::TakeScale() {
  if (samples_us_.empty()) return 1.0;
  std::sort(samples_us_.begin(), samples_us_.end());
  const size_t keep = samples_us_.size() - samples_us_.size() / 50;
  double sum = 0.0;
  for (size_t i = 0; i < keep; ++i) sum += samples_us_[i];
  samples_us_.clear();
  return kNominalUs / (sum / static_cast<double>(keep));
}

size_t Reference::resident_bytes() const {
  return pool_.size() * sizeof(Candidate) + table_.size() * sizeof(Slot) +
         scratch_.size() * sizeof(Candidate) + scores_.size() * sizeof(double);
}

}  // namespace perfbench
