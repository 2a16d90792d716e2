// The benchmark's workloads: how each one builds its input from the seed,
// configures and slices an engine job, and knows the right answer.
//
// A workload hands the driver a type-erased Job so the driver can time
// construction, start(), every advance() and finish() separately from the
// outside — nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"

namespace perfbench {

/// Everything a job reads. Built from the workload seed during set-up.
struct Input {
  pregel::Graph graph;
  pregel::Partitioning parts;
  /// Traversal roots (root-scheduled programs), picked from the seed.
  std::vector<pregel::VertexId> roots;
};

/// One engine job in the start/advance/finish slices the Engine exposes.
class Job {
 public:
  virtual ~Job() = default;
  /// False when the job died during start(); go straight to finish().
  virtual bool start() = 0;
  /// One Engine::advance; false once the engine reports kDone.
  virtual bool advance() = 0;
  virtual void finish() = 0;
  /// Live result: counters move during advance(), totals land in finish().
  virtual const pregel::JobReport& report() const = 0;
  /// The program's output, one number per vertex, after finish().
  virtual std::vector<double> values() const = 0;
};

/// Adapts Engine<Program> to Job. `Project` maps a final vertex value to the
/// number the oracle produces for that vertex.
template <class Program, class Project>
class EngineJob final : public Job {
 public:
  EngineJob(const Input& in, Program program, pregel::ClusterConfig cluster,
            pregel::JobOptions opts, Project project)
      : engine_(in.graph, std::move(program), std::move(cluster), in.parts),
        opts_(std::move(opts)),
        project_(std::move(project)) {}

  bool start() override { return engine_.start(opts_, result_); }
  bool advance() override {
    return engine_.advance(result_) == pregel::Engine<Program>::StepStatus::kRunning;
  }
  void finish() override { engine_.finish(result_); }
  const pregel::JobReport& report() const override { return result_; }
  std::vector<double> values() const override {
    std::vector<double> out;
    out.reserve(result_.values.size());
    for (const auto& v : result_.values) out.push_back(project_(v));
    return out;
  }

 private:
  pregel::Engine<Program> engine_;
  pregel::JobOptions opts_;
  Project project_;
  pregel::JobResult<Program> result_;
};

struct Workload {
  std::string name;
  /// Dataset analog (Table 1 short name) at 1/10 scale.
  std::string dataset;
  /// harness::make_partitioner name.
  std::string partitioner;
  /// Host lanes the job runs on (JobOptions::parallelism).
  std::uint32_t lanes = 1;
  /// One line naming the program and cluster settings, for the report.
  std::string config;
  /// Roots for root-scheduled programs; null for the others.
  std::function<std::vector<pregel::VertexId>(const pregel::Graph&, std::uint64_t seed)>
      pick_roots;
  /// A fresh, constructed engine job (stateful swath sizers are per job).
  std::function<std::unique_ptr<Job>(const Input&)> make_job;
  /// The sequential reference answer, per vertex.
  std::function<std::vector<double>(const Input&)> oracle;
  /// How far a value may sit from the oracle's and still count as right.
  std::string tolerance;
  std::function<bool(double got, double want)> within_tolerance;
};

Workload pagerank_wg_serial();
Workload bc_wg_adaptive();
Workload sssp_cp_ckpt_migrate();

/// The calibrated experiment cluster every workload starts from: 8
/// partitions on 8 experiment VMs at analog scale 1/10.
pregel::ClusterConfig base_cluster();

}  // namespace perfbench
