// bc-wg-adaptive: the paper's Figure 4 headline configuration. Its
// triangle-waveform frontier puts the staged superstep path, bag stealing
// and the adaptive swath controller under load.
#include <algorithm>
#include <cmath>

#include "algos/bc.hpp"
#include "graph/analysis.hpp"
#include "harness/experiment.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pregel;

Workload bc_wg_adaptive() {
  constexpr std::size_t kRoots = 48;
  // Brandes' reference and the engine add the same dependencies in a
  // different order (the engine compensates with Kahan summation), so the
  // scores agree to rounding, not to the bit.
  constexpr double kRelativeTolerance = 1e-9;
  Workload w;
  w.name = "bc-wg-adaptive";
  w.dataset = "WG";
  w.partitioner = "hash";
  w.lanes = 4;
  w.config = "BcProgram over 48 pick_roots(seed+17) roots, AdaptiveSwathSizer(4) + "
             "SequentialInitiation at memory_target(vm), fail_on_vm_restart=false, hash, "
             "8 partitions on 8 VMs, parallelism 4";
  w.pick_roots = [](const Graph& g, std::uint64_t seed) {
    return harness::pick_roots(g, kRoots, seed + 17);
  };
  w.make_job = [lanes = w.lanes](const Input& in) -> std::unique_ptr<Job> {
    const ClusterConfig cluster = base_cluster();
    JobOptions opts;
    opts.roots = in.roots;
    opts.swath = SwathPolicy::make(std::make_shared<AdaptiveSwathSizer>(4),
                                   std::make_shared<SequentialInitiation>(),
                                   harness::memory_target(cluster.vm));
    opts.fail_on_vm_restart = false;
    opts.parallelism = lanes;
    auto score = [](const algos::BcProgram::VertexValue& v) { return v.bc_score; };
    return std::make_unique<EngineJob<algos::BcProgram, decltype(score)>>(
        in, algos::BcProgram{}, cluster, opts, score);
  };
  w.oracle = [](const Input& in) { return reference_betweenness(in.graph, in.roots); };
  w.tolerance = "relative 1e-9 per vertex (absolute below a score of 1)";
  w.within_tolerance = [](double got, double want) {
    return std::fabs(got - want) <= kRelativeTolerance * std::max(1.0, std::fabs(want));
  };
  return w;
}

}  // namespace perfbench
