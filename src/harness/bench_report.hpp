// Machine-readable bench reports: the repo's perf trajectory.
//
// Every bench binary can fold its wall-clock repetitions and per-series
// counters into a BENCH_<name>.json file (schema pregelpp-bench-v1) next to its CSV.
// CI's bench-smoke job archives these per commit and gates on regressions,
// which is what makes the ROADMAP's "fast as the hardware allows" goal
// enforceable instead of aspirational.
//
// Schema (stable; bench/check_regression.py and external dashboards parse it):
//   {
//     "schema": "pregelpp-bench-v1",
//     "name": "<bench name>",
//     "git_sha": "<rev-parse at configure time>",
//     "build_type": "<CMAKE_BUILD_TYPE>",
//     "series": [
//       { "name": "<series>", "repetitions": N,
//         "wall_seconds": { "median": s, "p90": s, "min": s, "max": s,
//                           "mean": s, "samples": [s, ...] },
//         "counters": { "<key>": value, ... } }
//     ]
//   }
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pregel::harness {

/// Git SHA the build was configured at ("unknown" outside a git checkout).
std::string build_git_sha();

/// CMAKE_BUILD_TYPE the binary was compiled under.
std::string build_type();

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Record one repetition's wall time for a named series.
  void add_sample(const std::string& series, double wall_seconds);

  /// Attach a per-series counter (throughput, items/s, message totals...).
  void set_series_counter(const std::string& series, const std::string& key,
                          double value);

  void write(std::ostream& out) const;
  /// Write to `path` (creating parent directories) and log the location.
  void write_file(const std::string& path) const;

 private:
  struct Series {
    std::string name;
    std::vector<double> samples;
    std::vector<std::pair<std::string, double>> counters;
  };
  Series& series(const std::string& name);

  std::string name_;
  std::vector<Series> series_;
};

}  // namespace pregel::harness
