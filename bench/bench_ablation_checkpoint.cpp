// Ablation: generational delta checkpoints vs full snapshots. Sweep the
// checkpoint interval for three frontier shapes with the store in full-only
// and delta mode, and report modeled checkpoint bytes, checkpoint time,
// makespan, and dollar cost per cell:
//  * pagerank      — exact fixed-iteration: every vertex is active (and so
//                    dirty) every superstep, the control cell where a delta
//                    ties a full leg by construction;
//  * pagerank-adpt — tolerance-halted adaptive PageRank: the frontier
//                    decays as regions converge and deltas track it;
//  * sssp          — push-mode wavefront: the dirtied set is the wave.
// A seeded worker preemption in every cell also prices the restore-set
// download (base + intermediate deltas) so the delta saving is shown net of
// its recovery-side cost.
#include <chrono>
#include <iostream>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "graph/generators.hpp"
#include "harness/bench_report.hpp"
#include "harness/experiment.hpp"
#include "partition/partitioner.hpp"
#include "util/ascii_plot.hpp"

using namespace pregel;
using namespace pregel::algos;
using namespace pregel::harness;

namespace {

struct Cell {
  std::string workload;
  std::uint64_t interval;
  bool delta;
  std::uint32_t bases, deltas, failures;
  Bytes ckpt_bytes;
  double ckpt_s, makespan, cost;
};

ClusterConfig cell_cluster(const ExperimentEnv& env, std::uint64_t interval,
                           bool delta) {
  ClusterConfig c = make_cluster(env, 8, 8);
  c.checkpoint_interval = interval;
  c.ckpt.delta_enabled = delta;
  // Recovery constants scaled to analog size, as in the recovery ablation.
  c.failure_detection_time = 1.0;
  c.vm_reacquisition_time = 2.0;
  // One mid-run preemption: every cell pays one restore-set download.
  // Superstep 5 is inside even the quick-mode runs (adaptive PageRank
  // converges and the SSSP wave dies within ~10 supersteps there).
  c.scheduled_failures = {{5, 2}};
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  harness::init(argc, argv);
  banner("Ablation — delta vs full checkpoint generations",
         "modeled checkpoint bytes/time, makespan, and $-cost vs interval "
         "with the generational store in full-only and delta mode");

  const Graph& g = dataset("SD");
  const auto parts = HashPartitioner{}.partition(g, 8);
  // SSSP runs on a high-diameter grid (road-network shape): the wave is a
  // thin band crossing the lattice over hundreds of supersteps, so each
  // delta leg carries a small mutation set while a full snapshot re-uploads
  // every settled distance every round. (The web/social analogs are
  // small-world — their wave floods most vertices per interval and the
  // in-flight inbox, which every consistent checkpoint must carry, drowns
  // the value bytes.)
  const VertexId side = env().quick ? 128 : 256;
  const Graph gw = grid_graph(side, side);
  const auto parts_w = HashPartitioner{}.partition(gw, 8);
  const int iterations = env().quick ? 20 : 60;

  BenchReport report("ablation_checkpoint");
  TextTable t({"workload", "ckpt every", "mode", "gens (base+delta)",
               "ckpt bytes", "ckpt time", "makespan", "cost"});
  std::vector<Cell> cells;
  std::vector<std::pair<std::string, double>> bars;

  auto run_cell = [&](const std::string& workload, std::uint64_t interval,
                      bool delta, auto&& run) {
    const auto wall0 = std::chrono::steady_clock::now();
    const JobMetrics m = run(cell_cluster(env(), interval, delta));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    const Bytes bytes = m.checkpoint_base_bytes + m.checkpoint_delta_bytes;
    cells.push_back({workload, interval, delta, m.checkpoint_bases,
                     m.checkpoint_deltas, m.worker_failures, bytes,
                     m.checkpoint_time, m.total_time, m.cost_usd});
    const std::string series = workload + "/ckpt-" + std::to_string(interval) +
                               (delta ? "/delta" : "/full");
    report.add_sample(series, wall);
    report.set_series_counter(series, "checkpoint_bytes", static_cast<double>(bytes));
    report.set_series_counter(series, "checkpoint_s", m.checkpoint_time);
    report.set_series_counter(series, "makespan_s", m.total_time);
    report.set_series_counter(series, "cost_usd", m.cost_usd);
    t.add_row({workload, std::to_string(interval), delta ? "delta" : "full",
               std::to_string(m.checkpoint_bases) + "+" +
                   std::to_string(m.checkpoint_deltas),
               format_bytes(bytes), format_seconds(m.checkpoint_time),
               format_seconds(m.total_time), std::string(1, '$').append(fmt(m.cost_usd, 4))});
  };

  // Adaptive tolerance scaled to the uniform rank mass 1/|V|: low-rank tail
  // vertices settle within a few supersteps while hubs keep moving, so the
  // halted region grows superstep over superstep across the whole run.
  const double tol = 0.5 / static_cast<double>(g.num_vertices());

  for (std::uint64_t interval : {2ull, 5ull, 10ull}) {
    for (bool delta : {false, true}) {
      run_cell("pagerank", interval, delta, [&](ClusterConfig c) {
        Engine<PageRankProgram> e(g, {iterations, 0.85}, c, parts);
        JobOptions o;
        o.start_all_vertices = true;
        const auto r = e.run(o);
        return r.metrics;
      });
      run_cell("pagerank-adpt", interval, delta, [&](ClusterConfig c) {
        Engine<PageRankProgram> e(g, {iterations, 0.85, tol}, c, parts);
        JobOptions o;
        o.start_all_vertices = true;
        // Sender-side combining collapses the per-edge rank shares to one
        // message per receiver, so the in-flight inbox stops drowning the
        // value bytes the write barrier actually shrinks.
        o.use_combiner = true;
        const auto r = e.run(o);
        return r.metrics;
      });
      run_cell("sssp", interval, delta, [&](ClusterConfig c) {
        Engine<SsspProgram> e(gw, {}, c, parts_w);
        JobOptions o;
        o.roots = {0};
        o.use_combiner = true;
        const auto r = e.run(o);
        return r.metrics;
      });
    }
  }
  t.print(std::cout);

  // Headline ratio per workload at the tightest interval (the one with the
  // most generations): delta bytes as a fraction of full bytes (< 1.0
  // wherever the write barrier ever reports a shrunken mutation set).
  for (const std::string& w :
       {std::string("pagerank"), std::string("pagerank-adpt"), std::string("sssp")}) {
    const Cell* full = nullptr;
    const Cell* delta = nullptr;
    for (const Cell& c : cells)
      if (c.workload == w && c.interval == 2)
        (c.delta ? delta : full) = &c;
    if (full && delta && full->ckpt_bytes > 0) {
      const double ratio = static_cast<double>(delta->ckpt_bytes) /
                           static_cast<double>(full->ckpt_bytes);
      bars.emplace_back(w, ratio);
      report.set_series_counter(w + "/ckpt-2/delta", "bytes_vs_full", ratio);
    }
  }
  std::cout << "\n"
            << ascii_bar_chart(bars, 50,
                               "delta checkpoint bytes / full (interval 2)", 1.0)
            << "(exact PageRank dirties every vertex every superstep, so its\n"
               " deltas tie full legs by construction; the adaptive variant's\n"
               " frontier decays with convergence and SSSP's is the wave)\n";

  write_csv("ablation_checkpoint", [&](CsvWriter& w) {
    w.header({"workload", "checkpoint_interval", "delta", "bases", "deltas",
              "failures", "checkpoint_bytes", "checkpoint_s", "makespan_s",
              "cost_usd"});
    for (const Cell& c : cells)
      w.field(c.workload)
          .field(c.interval)
          .field(std::uint64_t{c.delta ? 1u : 0u})
          .field(std::uint64_t{c.bases})
          .field(std::uint64_t{c.deltas})
          .field(std::uint64_t{c.failures})
          .field(c.ckpt_bytes)
          .field(c.ckpt_s)
          .field(c.makespan)
          .field(c.cost)
          .end_row();
  });
  report.write_file(env().results_dir + "/BENCH_ablation_checkpoint.json");
  return 0;
}
