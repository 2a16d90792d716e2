// Ablation: multi-tenancy noise under BSP barriers.
//
// The paper's motivation (§I) names two cloud-specific costs it never
// quantifies: "multi-tenancy impacts performance consistency" and the
// inability to control VM placement. Under BSP they are worse than they
// look: a superstep ends when the SLOWEST worker finishes, so the expected
// superstep span is the expected MAXIMUM of W noisy draws — straggler
// amplification that grows with the worker count even though each VM's
// noise distribution is identical.
//
// Sweep: noise sigma x worker count, PageRank on the WG analog; report the
// slowdown versus the noise-free run and the effective utilization.
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
  banner("Ablation — multi-tenancy noise amplification under BSP barriers",
         "identical per-VM noise, but span = max over workers: slowdown "
         "grows with both sigma and the worker count");

  const Graph& g = dataset("WG");
  const int iters = env().quick ? 5 : 15;

  TextTable t({"workers", "sigma", "modeled time", "slowdown vs quiet", "utilization %"});
  struct Row {
    std::uint32_t workers;
    double sigma, slowdown, utilization;
  };
  std::vector<Row> rows;

  for (std::uint32_t w : {2u, 4u, 8u}) {
    const auto parts = HashPartitioner{}.partition(g, w);
    double quiet = 0.0;
    for (double sigma : {0.0, 0.1, 0.2, 0.4}) {
      ClusterConfig c = make_cluster(env(), w, w);
      c.faults.tenancy_sigma = sigma;
      c.faults.seed = env().seed + 5;
      const auto r = run_pagerank(g, c, parts, iters);
      if (sigma == 0.0) quiet = r.metrics.total_time;
      rows.push_back({w, sigma, r.metrics.total_time / quiet, r.metrics.utilization()});
      t.add_row({std::to_string(w), fmt(sigma, 1), format_seconds(r.metrics.total_time),
                 fmt(r.metrics.total_time / quiet, 2) + "x",
                 fmt(r.metrics.utilization() * 100, 1)});
    }
  }
  t.print(std::cout);

  std::vector<std::pair<std::string, double>> bars;
  for (const auto& r : rows)
    if (r.sigma == 0.4)
      bars.emplace_back(std::to_string(r.workers) + " workers @ sigma 0.4", r.slowdown);
  std::cout << "\n" << ascii_bar_chart(bars, 50, "straggler amplification (slowdown at sigma=0.4)",
                                        1.0);
  std::cout << "(each VM draws the SAME noise distribution; only the max-of-W "
               "barrier differs)\n";

  write_csv("ablation_tenancy_noise", [&](CsvWriter& w) {
    w.header({"workers", "sigma", "slowdown_vs_quiet", "utilization"});
    for (const auto& r : rows)
      w.field(std::uint64_t{r.workers}).field(r.sigma).field(r.slowdown)
          .field(r.utilization).end_row();
  });
  return 0;
}
