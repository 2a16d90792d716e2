// Ablation: checkpoint/recovery cost-benefit — the Pregel fault-tolerance
// feature the paper omits. Sweep the checkpoint interval under a fixed
// per-VM failure rate. Sparse checkpoints compound: every failure replays a
// longer tail, and replayed supersteps are themselves exposed to failures,
// so both the failure count and the total overhead grow with the interval —
// while checkpointing too often shows up as pure upload overhead in the
// failure-free column.
#include <iostream>

#include "algos/pagerank.hpp"
#include "harness/experiment.hpp"
#include "partition/partitioner.hpp"
#include "util/ascii_plot.hpp"

using namespace pregel;
using namespace pregel::algos;
using namespace pregel::harness;

int main(int argc, char** argv) {
  harness::init(argc, argv);
  banner("Ablation — checkpoint interval vs failure recovery cost",
         "the omitted Pregel extension, quantified: frequent checkpoints "
         "bound failure exposure (fewer replays -> fewer re-failures); "
         "sparse ones compound; none at all loses the job");

  const Graph& g = dataset("SD");  // small analog: many supersteps are cheap
  const auto parts = HashPartitioner{}.partition(g, 8);
  const int iterations = env().quick ? 20 : 60;
  const double failure_rate = 0.008;  // per VM per superstep (~6% per superstep across 8 VMs)

  // Failure-free reference.
  ClusterConfig clean = make_cluster(env(), 8, 8);
  Engine<PageRankProgram> eclean(g, {iterations, 0.85}, clean, parts);
  JobOptions o;
  o.start_all_vertices = true;
  const auto base = eclean.run(o);
  std::cout << "failure-free run: " << format_seconds(base.metrics.total_time) << ", "
            << base.metrics.total_supersteps() << " supersteps\n\n";

  TextTable t({"checkpoint every", "failures", "replayed supersteps", "ckpt time",
               "recovery time", "total time", "overhead vs clean"});
  struct Row {
    std::uint64_t interval;
    double overhead;
    std::uint32_t failures;
  };
  std::vector<Row> rows;
  std::vector<std::pair<std::string, double>> bars;

  for (std::uint64_t interval : {2ull, 5ull, 10ull, 20ull, 40ull}) {
    ClusterConfig c = make_cluster(env(), 8, 8);
    c.checkpoint_interval = interval;
    c.faults.vm_preemption_rate = failure_rate;
    c.faults.seed = env().seed;
    // Like the RAM envelope, the recovery constants are scaled to analog
    // size: a job whose supersteps take tens of milliseconds would be
    // swamped by production-scale 30s/90s detection/reacquisition values.
    c.failure_detection_time = 1.0;
    c.vm_reacquisition_time = 2.0;
    Engine<PageRankProgram> e(g, {iterations, 0.85}, c, parts);
    const auto r = e.run(o);
    if (r.failed) {
      t.add_row({std::to_string(interval), "-", "-", "-", "-", "JOB LOST", "-"});
      continue;
    }
    const double overhead = r.metrics.total_time / base.metrics.total_time;
    rows.push_back({interval, overhead, r.metrics.worker_failures});
    t.add_row({std::to_string(interval), std::to_string(r.metrics.worker_failures),
               std::to_string(r.metrics.replayed_supersteps),
               format_seconds(r.metrics.checkpoint_time),
               format_seconds(r.metrics.recovery_time),
               format_seconds(r.metrics.total_time), fmt(overhead, 2) + "x"});
    bars.emplace_back("every " + std::to_string(interval), overhead);
  }
  t.print(std::cout);
  std::cout << "\n" << ascii_bar_chart(bars, 50, "total-time overhead vs failure-free run", 1.0);
  std::cout << "(without checkpointing, any failure loses the whole job)\n\n";

  // Part 2: recovery-mode ablation. Same seeds at each failure rate, so both
  // modes see the identical failure sequence: full rollback re-executes every
  // partition from the checkpoint, confined recovery recomputes only the lost
  // VM's partitions while healthy workers re-deliver logged outbox bytes.
  banner("Recovery mode — full rollback vs confined recovery",
         "confined recovery (Pregel's proposed extension) replays only the "
         "failed worker's partitions; the rest of the cluster re-delivers "
         "logged messages instead of recomputing");

  TextTable t2({"failure rate", "mode", "failures", "replayed supersteps",
                "recovery time", "replay time", "total time", "overhead vs clean"});
  struct ModeRow {
    double rate;
    std::string mode;
    std::uint32_t failures;
    double recovery, replay, total, overhead;
  };
  std::vector<ModeRow> mode_rows;
  std::vector<std::pair<std::string, double>> mode_bars;

  for (double rate : {0.004, 0.008, 0.016}) {
    for (RecoveryMode mode : {RecoveryMode::kFullRollback, RecoveryMode::kConfined}) {
      ClusterConfig c = make_cluster(env(), 8, 8);
      c.checkpoint_interval = 5;
      c.faults.vm_preemption_rate = rate;
      c.faults.seed = env().seed;
      c.failure_detection_time = 1.0;
      c.vm_reacquisition_time = 2.0;
      c.recovery_mode = mode;
      Engine<PageRankProgram> e(g, {iterations, 0.85}, c, parts);
      const auto r = e.run(o);
      if (r.failed) {
        t2.add_row({fmt(rate, 3), to_string(mode), "-", "-", "-", "-", "JOB LOST", "-"});
        continue;
      }
      const double overhead = r.metrics.total_time / base.metrics.total_time;
      mode_rows.push_back({rate, to_string(mode), r.metrics.worker_failures,
                           r.metrics.recovery_time, r.metrics.confined_replay_time,
                           r.metrics.total_time, overhead});
      t2.add_row({fmt(rate, 3), to_string(mode), std::to_string(r.metrics.worker_failures),
                  std::to_string(r.metrics.replayed_supersteps),
                  format_seconds(r.metrics.recovery_time),
                  format_seconds(r.metrics.confined_replay_time),
                  format_seconds(r.metrics.total_time), fmt(overhead, 2) + "x"});
      mode_bars.emplace_back(fmt(rate, 3) + " " + to_string(mode), overhead);
    }
  }
  t2.print(std::cout);
  std::cout << "\n" << ascii_bar_chart(mode_bars, 50, "total-time overhead by recovery mode", 1.0);
  std::cout << "(identical failure sequences per rate; confined recovery downloads one\n"
               " checkpoint instead of eight and skips recomputing healthy partitions)\n";

  write_csv("ablation_fault_tolerance", [&](CsvWriter& w) {
    w.header({"sweep", "checkpoint_interval", "failure_rate", "recovery_mode",
              "failures", "recovery_s", "confined_replay_s", "overhead_vs_clean"});
    for (const auto& r : rows)
      w.field("interval")
          .field(r.interval)
          .field(failure_rate)
          .field("full-rollback")
          .field(std::uint64_t{r.failures})
          .field(0.0)
          .field(0.0)
          .field(r.overhead)
          .end_row();
    for (const auto& r : mode_rows)
      w.field("mode")
          .field(std::uint64_t{5})
          .field(r.rate)
          .field(r.mode)
          .field(std::uint64_t{r.failures})
          .field(r.recovery)
          .field(r.replay)
          .field(r.overhead)
          .end_row();
  });
  return 0;
}
