// pagerank-wg-serial: a dense, flat frontier on one lane, so message routing
// and the merge are the whole job and the serial superstep path runs.
#include <cmath>

#include "algos/pagerank.hpp"
#include "graph/analysis.hpp"
#include "harness/experiment.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pregel;

ClusterConfig base_cluster() { return harness::make_cluster(harness::ExperimentEnv{}, 8, 8); }

Workload pagerank_wg_serial() {
  constexpr int kIterations = 30;
  constexpr double kDamping = 0.85;
  Workload w;
  w.name = "pagerank-wg-serial";
  w.dataset = "WG";
  w.partitioner = "hash";
  w.lanes = 1;
  w.config = "PageRankProgram{30, 0.85}, start_all_vertices, hash, 8 partitions on 8 VMs, "
             "parallelism 1";
  w.make_job = [lanes = w.lanes](const Input& in) -> std::unique_ptr<Job> {
    JobOptions opts;
    opts.start_all_vertices = true;
    opts.parallelism = lanes;
    auto rank = [](const algos::PageRankProgram::VertexValue& v) { return v.rank; };
    return std::make_unique<EngineJob<algos::PageRankProgram, decltype(rank)>>(
        in, algos::PageRankProgram{kIterations, kDamping}, base_cluster(), opts, rank);
  };
  w.oracle = [](const Input& in) { return reference_pagerank(in.graph, kIterations, kDamping); };
  w.tolerance = "absolute 1e-12 per vertex";
  w.within_tolerance = [](double got, double want) { return std::fabs(got - want) <= 1e-12; };
  return w;
}

}  // namespace perfbench
