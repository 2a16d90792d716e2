// Ablation: recovery cost under the full failure taxonomy. Sweep the
// checkpoint interval under {no faults, worker preemption, manager
// preemption, availability-zone outage} and report modeled makespan and
// dollar cost for each cell. Worker preemptions price the classic
// checkpoint/replay trade-off; manager preemptions add lease-detection +
// takeover latency that is independent of the checkpoint interval; zone
// outages kill a whole failure domain at once, so sparse checkpoints both
// replay a longer tail and widen the window where an outage lands before
// the first (replicated) checkpoint exists and loses the job outright.
#include <chrono>
#include <iostream>

#include "algos/pagerank.hpp"
#include "harness/bench_report.hpp"
#include "harness/experiment.hpp"
#include "partition/partitioner.hpp"
#include "util/ascii_plot.hpp"

using namespace pregel;
using namespace pregel::algos;
using namespace pregel::harness;

namespace {

struct Scenario {
  std::string name;
  void (*arm)(ClusterConfig&);
};

void arm_none(ClusterConfig&) {}
void arm_worker(ClusterConfig& c) { c.faults.vm_preemption_rate = 0.004; }
void arm_manager(ClusterConfig& c) { c.faults.manager_preemption_rate = 0.12; }
void arm_zone(ClusterConfig& c) {
  c.availability_zones = 2;
  c.faults.zone_outage_rate = 0.04;
}

}  // namespace

int main(int argc, char** argv) {
  harness::init(argc, argv);
  banner("Ablation — recovery cost across the failure taxonomy",
         "makespan and $-cost vs checkpoint interval under worker "
         "preemptions, job-manager preemptions, and correlated "
         "availability-zone outages");

  const Graph& g = dataset("SD");
  const auto parts = HashPartitioner{}.partition(g, 8);
  const int iterations = env().quick ? 20 : 60;
  const Scenario scenarios[] = {{"no-faults", arm_none},
                                {"worker-preemption", arm_worker},
                                {"manager-preemption", arm_manager},
                                {"zone-outage", arm_zone}};

  // Checkpoint-free, fault-free reference for the overhead column.
  ClusterConfig clean = make_cluster(env(), 8, 8);
  Engine<PageRankProgram> eclean(g, {iterations, 0.85}, clean, parts);
  JobOptions o;
  o.start_all_vertices = true;
  const auto base = eclean.run(o);
  std::cout << "fault-free, checkpoint-free run: "
            << format_seconds(base.metrics.total_time) << ", $"
            << fmt(base.metrics.cost_usd, 4) << "\n\n";

  BenchReport report("ablation_recovery");
  TextTable t({"scenario", "ckpt every", "failures", "failovers", "outages",
               "makespan", "cost", "overhead vs clean"});
  std::vector<std::pair<std::string, double>> bars;
  struct Row {
    std::string scenario;
    std::uint64_t interval;
    bool failed;
    std::uint32_t failures, failovers, outages;
    double makespan, cost;
  };
  std::vector<Row> rows;

  for (const Scenario& s : scenarios) {
    for (std::uint64_t interval : {2ull, 5ull, 10ull, 20ull}) {
      ClusterConfig c = make_cluster(env(), 8, 8);
      c.checkpoint_interval = interval;
      // Recovery constants scaled to analog size, as in the fault-tolerance
      // ablation: production 30s/90s values would swamp ms-scale supersteps.
      c.failure_detection_time = 1.0;
      c.vm_reacquisition_time = 2.0;
      c.manager_lease_timeout = 1.0;
      c.manager_takeover_time = 0.5;
      s.arm(c);

      Engine<PageRankProgram> e(g, {iterations, 0.85}, c, parts);
      const auto wall0 = std::chrono::steady_clock::now();
      const auto r = e.run(o);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
              .count();

      const std::string series = s.name + "/ckpt-" + std::to_string(interval);
      report.add_sample(series, wall);
      rows.push_back({s.name, interval, r.failed, r.metrics.worker_failures,
                      r.metrics.manager_failovers, r.metrics.zone_outages,
                      r.failed ? 0.0 : r.metrics.total_time,
                      r.failed ? 0.0 : r.metrics.cost_usd});
      if (r.failed) {
        // A zone outage before the first replicated checkpoint exists, or a
        // preemption with no checkpoint coverage: the cell is a lost job.
        t.add_row({s.name, std::to_string(interval), "-", "-", "-", "JOB LOST",
                   "-", "-"});
        report.set_series_counter(series, "job_lost", 1.0);
        continue;
      }
      const double overhead = r.metrics.total_time / base.metrics.total_time;
      t.add_row({s.name, std::to_string(interval),
                 std::to_string(r.metrics.worker_failures),
                 std::to_string(r.metrics.manager_failovers),
                 std::to_string(r.metrics.zone_outages),
                 format_seconds(r.metrics.total_time),
                 std::string(1, '$').append(fmt(r.metrics.cost_usd, 4)), fmt(overhead, 2) + "x"});
      report.set_series_counter(series, "makespan_s", r.metrics.total_time);
      report.set_series_counter(series, "cost_usd", r.metrics.cost_usd);
      report.set_series_counter(series, "worker_failures", r.metrics.worker_failures);
      report.set_series_counter(series, "manager_failovers", r.metrics.manager_failovers);
      report.set_series_counter(series, "manager_failover_s",
                                r.metrics.manager_failover_time);
      report.set_series_counter(series, "zone_outages", r.metrics.zone_outages);
      report.set_series_counter(series, "checkpoint_replicas",
                                r.metrics.checkpoint_replicas_written);
      report.set_series_counter(series, "overhead_vs_clean", overhead);
      if (interval == 5) bars.emplace_back(s.name, overhead);
    }
  }
  t.print(std::cout);
  std::cout << "\n"
            << ascii_bar_chart(bars, 50, "overhead vs clean at ckpt interval 5", 1.0)
            << "(manager failovers cost lease + takeover regardless of interval;\n"
               " zone outages replay a whole domain and need cross-zone replicas)\n";

  write_csv("ablation_recovery", [&](CsvWriter& w) {
    w.header({"scenario", "checkpoint_interval", "failed", "failures",
              "manager_failovers", "zone_outages", "makespan_s", "cost_usd"});
    for (const Row& r : rows)
      w.field(r.scenario)
          .field(r.interval)
          .field(std::uint64_t{r.failed ? 1u : 0u})
          .field(std::uint64_t{r.failures})
          .field(std::uint64_t{r.failovers})
          .field(std::uint64_t{r.outages})
          .field(r.makespan)
          .field(r.cost)
          .end_row();
  });
  report.write_file(env().results_dir + "/BENCH_ablation_recovery.json");
  return 0;
}
