// Google-benchmark microbenchmarks of the framework's hot paths: message
// routing throughput through the engine, partitioner throughput, and graph
// generation. These are not paper figures; they track the simulator's own
// performance so regressions in the substrate are visible.
//
// In addition to the native google-benchmark flags (--benchmark_format=json,
// --benchmark_out=..., used by CI's bench-smoke job), `--report <path>` writes
// a pregelpp-bench-v1 JSON report (see harness/bench_report.hpp) with per-series
// median/p90 wall times and per-series counters.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "graph/generators.hpp"
#include "harness/bench_report.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"
#include "partition/streaming.hpp"
#include "sched/scheduler.hpp"
#include "subgraph/sssp.hpp"

namespace {

using namespace pregel;
using namespace pregel::algos;

const Graph& bench_graph() {
  static const Graph g = barabasi_albert(20000, 6, 99);
  return g;
}

ClusterConfig bench_cluster() {
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 8;
  return c;
}

void BM_EngineMessageRouting(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto parts = HashPartitioner{}.partition(g, 8);
  const int iters = static_cast<int>(state.range(0));
  std::uint64_t messages = 0;
  for (auto _ : state) {
    const auto r = run_pagerank(g, bench_cluster(), parts, iters);
    messages += r.metrics.total_messages();
    benchmark::DoNotOptimize(r.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(static_cast<double>(messages),
                                                benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineMessageRouting)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond);

// Host-parallel superstep execution on a 100k+-vertex graph: same job at
// 1/2/4 lanes. Results are bit-identical by contract; the curve tracks the
// wall-clock speedup of the staged compute + deterministic merge. (On a
// single-core builder the >1 lane rows mostly measure staging overhead.)
void BM_EngineParallelSupersteps(benchmark::State& state) {
  static const Graph g = barabasi_albert(120000, 8, 17);
  ClusterConfig c;
  c.num_partitions = 16;
  c.initial_workers = 8;
  static const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  JobOptions o;
  o.start_all_vertices = true;
  o.parallelism = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t messages = 0;
  for (auto _ : state) {
    Engine<PageRankProgram> e(g, {4, 0.85}, c, parts);
    const auto r = e.run(o);
    messages += r.metrics.total_messages();
    benchmark::DoNotOptimize(r.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(static_cast<double>(messages),
                                                benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineParallelSupersteps)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Skewed-frontier traversal: ~90% of vertices (and hence of every dense
// frontier) sit in one partition, so lane counts > 1 only pay off if dry
// lanes steal frontier chunks from the loaded one. Arg = parallelism; the Arg(8)
// row over the Arg(1) row is the work-stealing speedup on a multi-core host.
// On a single-core runner the two rows mostly measure staging overhead —
// still gated, so that overhead can't silently grow.
void BM_EngineSkewedFrontier(benchmark::State& state) {
  constexpr VertexId kN = 60000;
  constexpr PartitionId kParts = 16;
  static const Graph g = barabasi_albert(kN, 4, 23);
  static const Partitioning parts = [] {
    std::vector<PartitionId> assign(kN, 0);
    const VertexId tail = kN - kN / 10;
    for (VertexId v = tail; v < kN; ++v)
      assign[v] = static_cast<PartitionId>(1 + (v - tail) % (kParts - 1));
    return Partitioning(std::move(assign), kParts);
  }();
  ClusterConfig c;
  c.num_partitions = kParts;
  c.initial_workers = 8;
  JobOptions o;
  o.roots = {0};
  o.frontier_grain = 64;
  o.parallelism = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t steals = 0;
  for (auto _ : state) {
    Engine<SsspProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    messages += r.metrics.total_messages();
    steals += r.metrics.work_steals;
    benchmark::DoNotOptimize(r.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(static_cast<double>(messages),
                                                benchmark::Counter::kIsRate);
  state.counters["steals"] = benchmark::Counter(static_cast<double>(steals));
}
// UseRealTime: with >1 lane the main thread parks on the pool's barrier, so
// the default CPU-time denominator would inflate msgs/s by whatever fraction
// of the work the workers absorbed — wall clock is the honest denominator.
BENCHMARK(BM_EngineSkewedFrontier)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Multi-job scheduler: a 6-job mixed plan (PageRank + SSSP, staggered
// arrivals, two users) driven through JobScheduler on an 8-VM pool under the
// fair-share policy. Items = completed jobs; the jobs_per_hour_per_usd
// counter carries the modeled cost-efficiency (lower is worse — CI gates it
// alongside the wall-clock rate via check_regression.py).
void BM_SchedulerThroughput(benchmark::State& state) {
  static const Graph g_small = barabasi_albert(4000, 5, 41);
  static const Graph g_big = barabasi_albert(12000, 5, 42);
  static const auto parts_small = HashPartitioner{}.partition(g_small, 8);
  static const auto parts_big = HashPartitioner{}.partition(g_big, 8);
  std::uint64_t completed = 0;
  double jphpu = 0.0;
  for (auto _ : state) {
    sched::SchedulerOptions opts;
    opts.pool_vms = 8;
    sched::JobScheduler scheduler(opts);
    JobOptions all;
    all.start_all_vertices = true;
    JobOptions root0;
    root0.roots = {0};
    for (std::size_t i = 0; i < 6; ++i) {
      sched::JobSpec spec;
      spec.name = "job" + std::to_string(i);
      spec.user = (i % 2 != 0) ? "bob" : "alice";
      spec.arrival = static_cast<double>(i) * 0.5;
      ClusterConfig c;
      c.num_partitions = 8;
      c.initial_workers = (i % 2 != 0) ? 8 : 4;
      if (i % 2 != 0)
        scheduler.submit(spec, std::make_unique<sched::TypedJob<SsspProgram>>(
                                   g_big, SsspProgram{}, c, parts_big, root0));
      else
        scheduler.submit(spec, std::make_unique<sched::TypedJob<PageRankProgram>>(
                                   g_small, PageRankProgram{5, 0.85}, c, parts_small,
                                   all));
    }
    scheduler.run_all();
    completed += scheduler.pool().jobs_completed;
    jphpu = scheduler.pool().jobs_per_hour_per_usd;
    benchmark::DoNotOptimize(scheduler.pool());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["jobs/s"] = benchmark::Counter(static_cast<double>(completed),
                                                benchmark::Counter::kIsRate);
  state.counters["jobs_per_hour_per_usd"] = benchmark::Counter(jphpu);
}
BENCHMARK(BM_SchedulerThroughput)->Unit(benchmark::kMillisecond);

// Generational delta-checkpoint store on the hot path: SSSP writing a
// generation every other superstep with one seeded preemption, so every
// iteration pays the dirty-tracking write barrier, delta-leg sizing, one
// multi-generation restore, and the replay back to the failure point.
// ckpt_mbytes is the modeled store upload — deterministic, so CI gates it
// with direction 'lower': a sizing bug that balloons delta legs fails the
// job even when wall time holds.
void BM_EngineCheckpointDelta(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto parts = HashPartitioner{}.partition(g, 8);
  std::uint64_t messages = 0;
  double ckpt_mb = 0.0;
  for (auto _ : state) {
    ClusterConfig c = bench_cluster();
    c.checkpoint_interval = 2;
    c.ckpt.delta_enabled = true;
    c.failure_detection_time = 1.0;
    c.vm_reacquisition_time = 2.0;
    c.scheduled_failures = {{5, 1}};
    Engine<SsspProgram> e(g, {}, c, parts);
    JobOptions o;
    o.roots = {0};
    const auto r = e.run(o);
    messages += r.metrics.total_messages();
    ckpt_mb = static_cast<double>(r.metrics.checkpoint_base_bytes +
                                  r.metrics.checkpoint_delta_bytes) /
              (1024.0 * 1024.0);
    benchmark::DoNotOptimize(r.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["msgs/s"] = benchmark::Counter(static_cast<double>(messages),
                                                benchmark::Counter::kIsRate);
  state.counters["ckpt_mbytes"] = benchmark::Counter(ckpt_mb);
}
BENCHMARK(BM_EngineCheckpointDelta)->Unit(benchmark::kMillisecond);

void BM_EngineTraversal(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto parts = HashPartitioner{}.partition(g, 8);
  for (auto _ : state) {
    const auto r = run_sssp(g, bench_cluster(), parts, 0);
    benchmark::DoNotOptimize(r.values.data());
  }
}
BENCHMARK(BM_EngineTraversal)->Unit(benchmark::kMillisecond);

// Same traversal through the subgraph-centric path: per-partition Dijkstra
// to local convergence, staged-outbox sort, rank-merged boundary exchange.
// The pair (BM_EngineTraversal, BM_SubgraphSuperstep) tracks the relative
// cost of the two compute models on identical inputs.
void BM_SubgraphSuperstep(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto parts = HashPartitioner{}.partition(g, 8);
  std::uint64_t supersteps = 0, ops = 0;
  for (auto _ : state) {
    const auto r = subgraph::run_sssp_subgraph(g, bench_cluster(), parts, 0);
    supersteps += r.metrics.supersteps.size();
    for (const auto& sm : r.metrics.supersteps)
      for (const auto& wm : sm.workers) ops += wm.subgraph_ops;
    benchmark::DoNotOptimize(r.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["supersteps"] = benchmark::Counter(
      static_cast<double>(supersteps) / static_cast<double>(state.iterations()));
  state.counters["subgraph_ops/s"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SubgraphSuperstep)->Unit(benchmark::kMillisecond);

void BM_PartitionHash(benchmark::State& state) {
  const Graph& g = bench_graph();
  for (auto _ : state) {
    const auto p = HashPartitioner{}.partition(g, 8);
    benchmark::DoNotOptimize(p.assignment().data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_PartitionHash)->Unit(benchmark::kMillisecond);

void BM_PartitionStreamingLdg(benchmark::State& state) {
  const Graph& g = bench_graph();
  StreamingPartitioner sp;
  for (auto _ : state) {
    const auto p = sp.partition(g, 8);
    benchmark::DoNotOptimize(p.assignment().data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_PartitionStreamingLdg)->Unit(benchmark::kMillisecond);

void BM_PartitionMultilevel(benchmark::State& state) {
  const Graph& g = bench_graph();
  MultilevelPartitioner mp;
  for (auto _ : state) {
    const auto p = mp.partition(g, 8);
    benchmark::DoNotOptimize(p.assignment().data());
  }
}
BENCHMARK(BM_PartitionMultilevel)->Unit(benchmark::kMillisecond);

void BM_GenerateRmat(benchmark::State& state) {
  for (auto _ : state) {
    const Graph g = rmat({.scale = 14, .target_edges = 100000}, 7);
    benchmark::DoNotOptimize(g.num_arcs());
  }
}
BENCHMARK(BM_GenerateRmat)->Unit(benchmark::kMillisecond);

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  for (auto _ : state) {
    const Graph g = barabasi_albert(20000, 6, 3);
    benchmark::DoNotOptimize(g.num_arcs());
  }
}
BENCHMARK(BM_GenerateBarabasiAlbert)->Unit(benchmark::kMillisecond);

// google-benchmark finalizes user counters inside its reporters (rate
// counters divide by elapsed time, average counters by iterations); the Run
// objects still carry the raw values, so reproduce that adjustment here.
double finished_counter_value(const benchmark::Counter& c, double iterations,
                              double real_seconds) {
  double v = c.value;
  if ((c.flags & benchmark::Counter::kIsRate) != 0 && real_seconds > 0.0)
    v /= real_seconds;
  if ((c.flags & benchmark::Counter::kIsIterationInvariant) != 0) v *= iterations;
  if ((c.flags & benchmark::Counter::kAvgIterations) != 0 && iterations > 0.0)
    v /= iterations;
  if ((c.flags & benchmark::Counter::kInvert) != 0 && v != 0.0) v = 1.0 / v;
  return v;
}

// Console output as usual, plus every per-iteration run folded into the
// BenchReport as one wall-clock sample per repetition.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(pregel::harness::BenchReport& report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      report_.add_sample(name, run.real_accumulated_time / iters);
      for (const auto& [key, counter] : run.counters)
        report_.set_series_counter(
            name, key,
            finished_counter_value(counter, iters, run.real_accumulated_time));
    }
  }

 private:
  pregel::harness::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --report before google-benchmark sees argv; its native flags
  // (--benchmark_filter, --benchmark_format=json, --benchmark_out, ...)
  // pass through untouched.
  std::string report_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = std::string(arg.substr(std::string_view("--report=").size()));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[argc] = nullptr;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  if (report_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }

  pregel::harness::BenchReport report("micro_engine");
  CollectingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.write_file(report_path);
  return 0;
}
