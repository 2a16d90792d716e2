#include "harness/experiment.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/streaming.hpp"
#include "runtime/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pregel::harness {

namespace {

unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<unsigned>(parsed) : fallback;
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && *v != '0';
}

// Set by init() before the first env() call; env() folds it in.
bool g_smoke = false;

// Trace export destination, fixed at init() time so the atexit handler needs
// no allocation-order guarantees beyond this translation unit's statics.
std::string g_trace_path;

void flush_trace() {
  trace::Tracer& t = trace::Tracer::instance();
  namespace fs = std::filesystem;
  const fs::path trace_path(g_trace_path);
  if (trace_path.has_parent_path()) fs::create_directories(trace_path.parent_path());
  std::ofstream out(trace_path);
  if (!out) {
    std::cerr << "[trace] cannot open " << g_trace_path << "\n";
    return;
  }
  t.write_chrome_trace(out);
  std::cout << "[trace] " << trace_path.string() << " (" << t.event_count() << " events)\n";
}

std::string program_stem(const char* argv0) {
  const std::string stem = std::filesystem::path(argv0).stem().string();
  return stem.empty() ? "bench" : stem;
}

}  // namespace

const ExperimentEnv& env() {
  static const ExperimentEnv e = [] {
    ExperimentEnv out;
    out.smoke = g_smoke || env_flag("PREGEL_SMOKE");
    out.quick = env_flag("PREGEL_QUICK") || out.smoke;
    out.scale_div =
        env_unsigned("PREGEL_SCALE_DIV", out.smoke ? 100u : (out.quick ? 50u : 10u));
    if (const char* d = std::getenv("PREGEL_RESULTS_DIR"); d != nullptr && *d != '\0')
      out.results_dir = d;
    out.seed = env_unsigned("PREGEL_SEED", 2013);
    return out;
  }();
  return e;
}

void init(int& argc, char** argv) {
  bool trace_requested = false;
  std::string trace_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      g_smoke = true;
    } else if (arg == "--trace") {
      trace_requested = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_requested = true;
      trace_path = arg.substr(std::string_view("--trace=").size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[argc] = nullptr;

  // PREGEL_TRACE=1 enables tracing; any other non-empty value is the path.
  if (const char* v = std::getenv("PREGEL_TRACE"); v != nullptr && *v != '\0' && std::string_view(v) != "0") {
    trace_requested = true;
    if (std::string_view(v) != "1" && trace_path.empty()) trace_path = v;
  }
  if (!trace_requested) return;

  const std::string name = program_stem(argv[0]);
  trace::TraceConfig cfg;
  cfg.spans = true;
  cfg.process_name = name;
  trace::Tracer::instance().configure(cfg);
  g_trace_path = trace_path.empty()
                     ? (std::filesystem::path(env().results_dir) /
                        ("TRACE_" + name + ".json"))
                           .string()
                     : trace_path;
  std::atexit(flush_trace);
}

std::size_t repetitions(std::size_t normal) { return env().smoke ? 1 : normal; }

const Graph& dataset(const std::string& short_name) {
  static std::unordered_map<std::string, Graph> cache;
  auto it = cache.find(short_name);
  if (it == cache.end()) {
    it = cache.emplace(short_name, dataset_analog(short_name, env().scale_div, env().seed))
             .first;
  }
  return it->second;
}

cloud::VmSpec experiment_vm(const ExperimentEnv& e) {
  // Calibration (see EXPERIMENTS.md): at scale_div=10, the BC workload on
  // the WG analog peaks at ~9.5 MiB of modeled worker memory per concurrent
  // root; a 320 MiB envelope puts the paper's regime in reach — swaths of
  // ~40 roots spill into virtual memory (restart at 1.5x = 480 MiB), while
  // the heuristics' 6/7 target (~274 MiB) admits swaths of ~25.
  constexpr double kRamAtDiv10 = 320.0 * 1024 * 1024;
  const double ram = kRamAtDiv10 * (10.0 / static_cast<double>(e.scale_div));
  cloud::VmSpec vm = cloud::azure_large_2012();
  vm.ram = static_cast<Bytes>(ram);
  vm.name = "azure-large-2012/analog-div" + std::to_string(e.scale_div);
  return vm;
}

Bytes memory_target(const cloud::VmSpec& vm) {
  return static_cast<Bytes>(static_cast<double>(vm.ram) * 6.0 / 7.0);
}

MemGovernorConfig default_governor() {
  MemGovernorConfig g;
  g.enabled = true;
  g.soft_watermark = 0.85;
  g.hard_watermark = 1.0;
  g.spill_enabled = true;
  g.shed_enabled = true;
  return g;
}

ClusterConfig make_cluster(const ExperimentEnv& e, std::uint32_t partitions,
                           std::uint32_t workers) {
  ClusterConfig c;
  c.num_partitions = partitions;
  c.initial_workers = workers;
  c.vm = experiment_vm(e);
  return c;
}

std::vector<VertexId> pick_roots(const Graph& g, std::size_t count, std::uint64_t seed) {
  PREGEL_CHECK(g.num_vertices() > 0);
  count = std::min<std::size_t>(count, g.num_vertices());
  Xoshiro256 rng(seed);
  std::unordered_set<VertexId> chosen;
  chosen.reserve(count * 2);
  std::vector<VertexId> roots;
  roots.reserve(count);
  while (roots.size() < count) {
    const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    if (chosen.insert(v).second) roots.push_back(v);
  }
  return roots;
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name, std::uint64_t seed) {
  if (name == "hash") return std::make_unique<HashPartitioner>(seed);
  if (name == "metis") {
    MultilevelPartitioner::Options o;
    o.seed = seed;
    return std::make_unique<MultilevelPartitioner>(o);
  }
  if (name == "stream")
    return std::make_unique<StreamingPartitioner>(StreamHeuristic::kLinearGreedy,
                                                  StreamOrder::kNatural, 1.0, seed);
  throw std::invalid_argument("make_partitioner: unknown partitioner " + name);
}

void write_csv(const std::string& name, const std::function<void(CsvWriter&)>& fill) {
  namespace fs = std::filesystem;
  fs::create_directories(env().results_dir);
  const fs::path path = fs::path(env().results_dir) / (name + ".csv");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_csv: cannot open " + path.string());
  CsvWriter w(out);
  fill(w);
  std::cout << "[csv] " << path.string() << " (" << w.rows_written() << " rows)\n";
}

void banner(const std::string& figure, const std::string& paper_claim) {
  std::cout << "\n=== " << figure << " ===\n";
  std::cout << "paper: " << paper_claim << "\n";
  std::cout << "setup: analogs at 1/" << env().scale_div << " scale, "
            << experiment_vm(env()).name << ", deterministic seed " << env().seed
            << "\n\n";
}

Seconds extrapolate_total_time(const JobMetrics& metrics, std::size_t roots_run,
                               std::size_t roots_total) {
  PREGEL_CHECK(roots_run > 0);
  const Seconds per_root = (metrics.total_time - metrics.setup_time) /
                           static_cast<double>(roots_run);
  return metrics.setup_time + per_root * static_cast<double>(roots_total);
}

}  // namespace pregel::harness
