// Pins two facts about the benchmark's request streams: the same seed
// yields the same stream digest, and a different seed a different one.
#include <cstdio>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  const std::string work_dir =
      argc > 1 ? argv[1] : ".bench_build/perfbench-test-work";
  int failures = 0;
  for (const std::string& name : perfbench::WorkloadNames()) {
    uint64_t digests[3] = {0, 0, 0};
    const uint64_t seeds[3] = {7, 7, 8};
    for (int i = 0; i < 3; ++i) {
      auto built = perfbench::BuildWorkload(name, seeds[i], work_dir);
      if (!built.ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     built.status().ToString().c_str());
        return 1;
      }
      digests[i] = perfbench::StreamDigest(built.value().stream);
    }
    if (digests[0] != digests[1]) {
      std::fprintf(stderr, "%s: seed 7 gave two different streams\n",
                   name.c_str());
      ++failures;
    }
    if (digests[0] == digests[2]) {
      std::fprintf(stderr, "%s: seeds 7 and 8 gave the same stream\n",
                   name.c_str());
      ++failures;
    }
    std::printf("%s: seed 7 -> %016llx, seed 8 -> %016llx\n", name.c_str(),
                static_cast<unsigned long long>(digests[0]),
                static_cast<unsigned long long>(digests[2]));
  }
  return failures == 0 ? 0 : 1;
}
