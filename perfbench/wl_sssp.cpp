// sssp-cp-ckpt-migrate: §VII's imbalanced-partition graph under METIS, with
// delta checkpoints, one scheduled worker failure and activity-greedy
// migration at every barrier, so the checkpoint store, recovery replay and
// the migration executor all run inside the job.
#include "algos/sssp.hpp"
#include "graph/analysis.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace pregel;

Workload sssp_cp_ckpt_migrate() {
  Workload w;
  w.name = "sssp-cp-ckpt-migrate";
  w.dataset = "CP";
  w.partitioner = "metis";
  w.lanes = 4;
  w.config = "SsspProgram from vertex 0, metis, 8 partitions on 8 VMs, checkpoint every 2 "
             "supersteps (delta), failure at (superstep 5, VM 1), detection 1 s, "
             "reacquisition 2 s, ActivityGreedyPlanner(0.1) every barrier, parallelism 4";
  w.make_job = [lanes = w.lanes](const Input& in) -> std::unique_ptr<Job> {
    ClusterConfig cluster = base_cluster();
    cluster.checkpoint_interval = 2;
    cluster.ckpt.delta_enabled = true;
    cluster.scheduled_failures = {{5, 1}};
    cluster.failure_detection_time = 1.0;
    cluster.vm_reacquisition_time = 2.0;
    cluster.migration.planner = std::make_shared<ActivityGreedyPlanner>(0.1);
    cluster.migration.period = 1;
    JobOptions opts;
    opts.roots = {0};
    opts.parallelism = lanes;
    auto distance = [](const algos::SsspProgram::VertexValue& v) {
      return static_cast<double>(v.distance);
    };
    return std::make_unique<EngineJob<algos::SsspProgram, decltype(distance)>>(
        in, algos::SsspProgram{}, std::move(cluster), opts, distance);
  };
  w.oracle = [](const Input& in) {
    const auto hops = bfs_distances(in.graph, 0);
    return std::vector<double>(hops.begin(), hops.end());
  };
  w.tolerance = "exact";
  w.within_tolerance = [](double got, double want) { return got == want; };
  return w;
}

}  // namespace perfbench
