#include "harness/bench_report.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/stats.hpp"

#ifndef PREGEL_GIT_SHA
#define PREGEL_GIT_SHA "unknown"
#endif
#ifndef PREGEL_BUILD_TYPE
#define PREGEL_BUILD_TYPE "unknown"
#endif

namespace pregel::harness {

std::string build_git_sha() { return PREGEL_GIT_SHA; }

std::string build_type() { return PREGEL_BUILD_TYPE; }

BenchReport::Series& BenchReport::series(const std::string& name) {
  for (Series& s : series_)
    if (s.name == name) return s;
  series_.push_back(Series{name, {}, {}});
  return series_.back();
}

void BenchReport::add_sample(const std::string& name, double wall_seconds) {
  series(name).samples.push_back(wall_seconds);
}

void BenchReport::set_series_counter(const std::string& name, const std::string& key,
                                     double value) {
  auto& counters = series(name).counters;
  for (auto& [k, v] : counters)
    if (k == key) {
      v = value;
      return;
    }
  counters.emplace_back(key, value);
}

void BenchReport::write(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("pregelpp-bench-v1");
  w.key("name").value(name_);
  w.key("git_sha").value(build_git_sha());
  w.key("build_type").value(build_type());
  w.key("series").begin_array();
  for (const Series& s : series_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("repetitions").value(static_cast<std::uint64_t>(s.samples.size()));
    Percentiles p;
    double min = 0.0, max = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < s.samples.size(); ++i) {
      p.add(s.samples[i]);
      min = i == 0 ? s.samples[i] : std::min(min, s.samples[i]);
      max = std::max(max, s.samples[i]);
      sum += s.samples[i];
    }
    w.key("wall_seconds").begin_object();
    w.key("median").value(p.median());
    w.key("p90").value(p.quantile(0.9));
    w.key("min").value(min);
    w.key("max").value(max);
    w.key("mean").value(s.samples.empty() ? 0.0
                                          : sum / static_cast<double>(s.samples.size()));
    w.key("samples").begin_array();
    for (const double x : s.samples) w.value(x);
    w.end_array();
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& [k, v] : s.counters) w.key(k).value(v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

void BenchReport::write_file(const std::string& path) const {
  namespace fs = std::filesystem;
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path());
  std::ofstream out(p);
  if (!out) throw std::runtime_error("BenchReport: cannot open " + path);
  write(out);
  std::cout << "[bench] " << path << "\n";
}

}  // namespace pregel::harness
