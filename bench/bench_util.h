#ifndef ECOCHARGE_BENCH_BENCH_UTIL_H_
#define ECOCHARGE_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table_writer.h"
#include "core/environment.h"
#include "core/evaluation.h"
#include "core/workload.h"

namespace ecocharge {
namespace bench {

/// \brief Shared configuration of the figure-reproduction benches.
///
/// Defaults mirror the paper's setup (Section V-A/B): k = 3, R = 50 km,
/// Q = 5 km, equal weights, >1,000 chargers, ~10 repetitions. `--quick`
/// shrinks the workload for smoke runs.
struct BenchConfig {
  size_t k = 3;
  double radius_m = 50000.0;
  double q_distance_m = 5000.0;
  size_t num_chargers = 1000;
  double dataset_scale = 0.01;
  size_t max_trips = 12;
  size_t max_states = 24;
  int repetitions = 3;
  uint64_t seed = 42;
  SpatialIndexKind index_kind = SpatialIndexKind::kQuadTree;
  /// Non-empty: mmap the road network from this snapshot (graph/io.h)
  /// instead of synthesizing it. See EnvironmentOptions::graph_snapshot.
  std::string graph_snapshot;

  static BenchConfig FromArgs(int argc, char** argv) {
    BenchConfig cfg;
    for (int i = 1; i < argc; ++i) {
      auto next = [&](const char* flag) -> const char* {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
          return argv[++i];
        }
        return nullptr;
      };
      if (std::strcmp(argv[i], "--quick") == 0) {
        cfg.num_chargers = 300;
        cfg.max_trips = 4;
        cfg.max_states = 8;
        cfg.repetitions = 1;
      } else if (const char* v = next("--states")) {
        cfg.max_states = std::strtoull(v, nullptr, 10);
      } else if (const char* v = next("--reps")) {
        cfg.repetitions = std::atoi(v);
      } else if (const char* v = next("--chargers")) {
        cfg.num_chargers = std::strtoull(v, nullptr, 10);
      } else if (const char* v = next("--seed")) {
        cfg.seed = std::strtoull(v, nullptr, 10);
      } else if (const char* v = next("--graph-snapshot")) {
        cfg.graph_snapshot = v;
      } else if (const char* v = next("--index")) {
        auto kind = ParseSpatialIndexKind(v);
        if (!kind.ok()) {
          std::cerr << kind.status() << "\n";
          std::exit(2);
        }
        cfg.index_kind = kind.value();
      }
    }
    return cfg;
  }
};

/// One prepared dataset world: environment + workload + evaluator.
struct PreparedWorld {
  std::unique_ptr<Environment> env;
  std::vector<VehicleState> states;
};

/// Builds the environment and workload of `kind` under `cfg`. Exits the
/// process on failure (benches have no meaningful recovery).
inline PreparedWorld Prepare(DatasetKind kind, const BenchConfig& cfg) {
  EnvironmentOptions eo;
  eo.kind = kind;
  eo.dataset_scale = cfg.dataset_scale;
  eo.num_chargers = cfg.num_chargers;
  // The evaluation metric normalizes D by a fixed property of the map (the
  // maximum derouting the largest swept radius allows); each ranker's own
  // objective normalizes by its configured 2R.
  eo.max_derouting_m = 150000.0;
  eo.seed = cfg.seed;
  eo.index_kind = cfg.index_kind;
  eo.graph_snapshot = cfg.graph_snapshot;
  auto env_result = MakeEnvironment(eo);
  if (!env_result.ok()) {
    std::cerr << "environment(" << DatasetName(kind)
              << "): " << env_result.status() << "\n";
    std::exit(1);
  }
  PreparedWorld world;
  world.env = std::move(env_result).MoveValueUnsafe();

  WorkloadOptions wo;
  wo.max_trips = cfg.max_trips;
  wo.max_states = cfg.max_states;
  wo.seed = cfg.seed ^ 0xBEEFULL;
  world.states = BuildWorkload(world.env->dataset, wo);
  if (world.states.empty()) {
    std::cerr << "empty workload for " << DatasetName(kind) << "\n";
    std::exit(1);
  }
  return world;
}

/// "12.34 +- 0.56" formatting used by all result tables (ASCII so the
/// aligned table renders correctly in byte-width terminals).
inline std::string MeanStd(const RunningStats& s, int precision = 2) {
  return TableWriter::Fmt(s.mean(), precision) + " +- " +
         TableWriter::Fmt(s.stddev(), precision);
}

/// \brief Machine-readable bench output: accumulates flat records and
/// writes them as a JSON array (`BENCH_*.json`), so result files can be
/// diffed, plotted, and regression-checked without parsing the text
/// tables. Deliberately tiny — no external JSON dependency.
class BenchJsonWriter {
 public:
  /// Starts a new record; subsequent Num/Str calls add fields to it.
  void BeginRecord() { records_.emplace_back(); }

  void Num(const std::string& key, double value) {
    std::ostringstream os;
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 1e15) {
      os << static_cast<long long>(value);
    } else if (std::isfinite(value)) {
      os.precision(10);
      os << value;
    } else {
      os << "null";  // JSON has no NaN/Inf
    }
    records_.back().push_back(Quoted(key) + ": " + os.str());
  }

  void Str(const std::string& key, const std::string& value) {
    records_.back().push_back(Quoted(key) + ": " + Quoted(value));
  }

  /// Writes `[ {..}, .. ]` to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (size_t r = 0; r < records_.size(); ++r) {
      out << "  {";
      for (size_t f = 0; f < records_[r].size(); ++f) {
        out << (f ? ", " : "") << records_[r][f];
      }
      out << "}" << (r + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

  size_t num_records() const { return records_.size(); }

 private:
  /// `s` as a JSON string literal. Built by appending: prepending to a
  /// std::string trips GCC 12's -Wrestrict false positive in char_traits.
  static std::string Quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }

  std::vector<std::vector<std::string>> records_;
};

}  // namespace bench
}  // namespace ecocharge

#endif  // ECOCHARGE_BENCH_BENCH_UTIL_H_
