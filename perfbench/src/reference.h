// A fixed reference workload for host-speed correction.
//
// On a shared host the same replay of the same binary runs 10-30% slower
// for tens of seconds at a time while co-tenants load the caches and memory
// the serving path depends on; CPU time tracks wall time, so this is the
// host's speed, not preemption, and it shifts between processes minutes
// apart. A small register-only or single-table kernel does not track it
// (correlation 0.1-0.5 with the serving time in scratch runs), but a
// miniature of the serving hot path does (0.95): copy one of many cached
// candidate arrays, look every candidate up in a large hash table, score it
// and select the top few. This file holds that miniature. It shares no code
// with the program, so a change to the program cannot move it.
//
// The benchmark runs it about every 10 ms between requests and multiplies
// every time measured over a replay by kNominalUs / (its mean time over the
// same replay): reported times are in units of a host on which one
// reference call takes kNominalUs microseconds.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Reference {
 public:
  /// One reference call on an uncontended host, in microseconds.
  static constexpr double kNominalUs = 80.0;

  Reference();

  /// Runs one reference call when at least the interleave period has
  /// passed since the last one; returns the nanoseconds spent (0 if none).
  uint64_t MaybeRun();

  /// Runs one reference call now; returns its nanoseconds.
  uint64_t Run();

  /// kNominalUs over the mean call time since the last Take() (slowest 2%
  /// dropped); 1 when no call ran. Starts a new window.
  double TakeScale();

  /// Bytes the reference keeps resident (excluded from rss_peak_mb).
  size_t resident_bytes() const;

 private:
  struct Candidate {
    std::array<double, 12> fields;
  };
  struct Slot {
    uint64_t key;
    double value[3];
  };

  uint64_t NextRandom();

  std::vector<Candidate> pool_;    // kClients arrays of kCandidates
  std::vector<Slot> table_;        // open addressing, power-of-two size
  std::vector<Candidate> scratch_;
  std::vector<double> scores_;
  std::vector<double> samples_us_;
  std::chrono::steady_clock::time_point last_run_;
  uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
