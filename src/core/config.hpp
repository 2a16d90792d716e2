// Cluster and job configuration + result types shared by all programs.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/ckpt_store.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/elasticity.hpp"
#include "cloud/faults.hpp"
#include "cloud/placement.hpp"
#include "cloud/vm.hpp"
#include "core/swath.hpp"
#include "graph/graph.hpp"
#include "partition/rebalance.hpp"
#include "runtime/mem_governor.hpp"
#include "runtime/metrics.hpp"

namespace pregel {

/// What a worker failure rolls back.
enum class RecoveryMode {
  /// Pregel's default: every partition reloads the last checkpoint and the
  /// whole cluster replays the lost supersteps at full cost.
  kFullRollback,
  /// Confined recovery: only the failed VM's partitions reload the
  /// checkpoint and recompute; healthy workers keep their state and merely
  /// re-deliver their logged per-superstep outboxes to the lost partitions.
  kConfined,
};

const char* to_string(RecoveryMode mode) noexcept;

/// Scale-in rung: when a job's frontier collapses, retire idle VMs mid-job
/// and re-home their partitions through the MigrationExecutor, returning the
/// capacity to the pool (a multi-job scheduler reclaims it between slices).
/// The trigger reads modeled job-own state only — active-vertex density and
/// pending swath roots — so the decision, like every other elasticity rung,
/// is part of the bit-identity contract and reproduces in a solo run.
struct ScaleInOptions {
  bool enabled = false;
  /// Retire when active vertices / total vertices stays below this...
  double density_threshold = 0.05;
  /// ...for this many consecutive barriers (debounces frontier oscillation,
  /// e.g. a direction-optimized wave straddling the pull/push switch).
  std::uint32_t patience = 2;
  /// Never shrink below this many VMs.
  std::uint32_t min_workers = 1;
  /// Barriers to wait after a retirement before considering the next one,
  /// so the re-homed partitions' first supersteps inform the next decision.
  std::uint32_t cooldown = 2;
};

/// The simulated deployment: how many graph partitions exist, how many
/// worker VMs host them, what hardware each VM is, and how the environment
/// behaves (cost model parameters, fault plan, elastic scaling policy).
struct ClusterConfig {
  /// Logical graph partitions. This is the paper's "number of partition
  /// workers" at full scale; with elastic scaling, fewer VMs may host them
  /// (partition p runs on VM p mod W).
  std::uint32_t num_partitions = 8;
  /// VMs at job start (must be in [1, num_partitions]).
  std::uint32_t initial_workers = 8;
  cloud::VmSpec vm = cloud::azure_large_2012();
  cloud::CostParams cost;
  /// Worker-count policy consulted at each barrier; null = fixed at
  /// initial_workers.
  std::shared_ptr<cloud::ScalingPolicy> scaling;
  /// Added to the superstep span whenever the worker count changes
  /// (VM acquisition/release). The paper's Figure 16 projection uses 0.
  Seconds scale_event_cost = 0.0;
  /// Partition->VM placement policy consulted at each barrier; null = static
  /// p mod workers. Useful with num_partitions > workers (overdecomposition):
  /// rebalancing placement counters the partition-local activity maximas of
  /// §VII. Migration time (partition bytes over the network) is charged.
  std::shared_ptr<cloud::PlacementPolicy> placement;
  /// Live vertex migration: a planner (none installed = subsystem off) plus
  /// when to consult it (every `period` barriers and/or after scaling
  /// events). Transfers ride the modeled queue/blob planes with every byte
  /// charged; results stay bit-identical to the unmigrated run (see
  /// docs/ELASTICITY.md).
  MigrationOptions migration;
  /// Frontier-collapse scale-in (off by default). Retirement re-homes the
  /// departing VM's partitions over the modeled transfer planes via the same
  /// redistribution path scaling events use, so every byte is charged.
  ScaleInOptions scale_in;

  // -- Fault tolerance (Pregel's checkpoint/recovery, which the paper lists
  // -- among the advanced features its framework could support) ------------
  /// Write a checkpoint to blob storage every N supersteps (0 = off). A
  /// worker failure (`faults.vm_preemption_rate`, or one scheduled below)
  /// with no checkpoint taken fails the job; with checkpoints the engine
  /// rolls back and replays.
  std::uint64_t checkpoint_interval = 0;
  /// Explicitly scheduled failures: (superstep, worker VM). Each fires once.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scheduled_failures;
  /// Explicitly scheduled whole-zone outages: (superstep, zone). Each fires
  /// once, preempting every VM in the zone — the deterministic counterpart
  /// of the seeded zone-outage stream for crash-point tests.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scheduled_zone_outages;
  /// Generational checkpoint-store policy: delta chains, retention/GC,
  /// background scrub, and deterministic crash-point hooks (see
  /// docs/FAULTS.md "Checkpoint store").
  cloud::CkptOptions ckpt;
  /// Modeled time to detect a dead worker (missed barrier heartbeats),
  /// acquire a replacement VM, and have every worker reload the checkpoint
  /// (transfer time is charged separately from checkpoint size).
  Seconds failure_detection_time = 30.0;
  Seconds vm_reacquisition_time = 90.0;
  /// Scope of a rollback after a worker failure. Confined recovery requires
  /// checkpointing; it additionally logs per-partition remote outbox bytes
  /// each superstep so healthy partitions can re-deliver instead of replay.
  RecoveryMode recovery_mode = RecoveryMode::kFullRollback;

  // -- Control plane and correlated failure domains -------------------------
  /// Availability zones the worker fleet is striped across (VM v lives in
  /// zone v mod availability_zones). With more than one zone the seeded
  /// zone-outage fault class can preempt a whole domain at once, and the
  /// engine spreads checkpoint replicas across zones. 1 = no zone modeling.
  std::uint32_t availability_zones = 1;
  /// With multiple zones, write each worker's checkpoint to a second blob in
  /// another zone (extra upload time + one extra blob-write fault draw per
  /// worker). Without replicas a zone outage loses the checkpoints homed in
  /// that zone and the job cannot recover from it.
  bool replicate_checkpoints_across_zones = true;
  /// Manager-failover latency model: how long until the standby notices the
  /// primary's lease lapsed, plus how long the takeover itself (manifest
  /// download, epoch bump, re-arming the step queue) takes. Both are charged
  /// to the barrier at which the failover happens.
  Seconds manager_lease_timeout = 10.0;
  Seconds manager_takeover_time = 5.0;

  // -- Cloud weather (the clouds the paper actually ran on) -----------------
  /// Everything that goes wrong, from one seed: queue/blob transients,
  /// worker deaths, manager preemptions, zone outages, multi-tenancy noise
  /// and straggler episodes. All-zero rates (the default) inject nothing and
  /// the simulation is bit-identical to a failure-free run.
  cloud::FaultPlan faults;
  /// Client-side retry discipline masking the transient queue/blob classes;
  /// masked latency is charged to the cost model, and an op that exhausts
  /// its budget escalates to a worker failure.
  cloud::RetryPolicy retry;
  /// Barrier straggler timeout: a worker whose superstep runs past
  /// `straggler_timeout_factor` x the median worker time is declared slow
  /// and its partitions are speculatively re-executed on the least-loaded
  /// VM (counted in metrics and reported to the PlacementPolicy). Values
  /// <= 1 disable the timeout.
  double straggler_timeout_factor = 0.0;
};

/// Push/pull direction policy for direction-optimizing traversal programs
/// (those declaring `kDirectionOptimized`, e.g. SSSP/BC/Components). The
/// switch heuristic is Beamer-style but evaluated on *modeled* frontier
/// density only, so the choice — and every metric downstream of it — is
/// identical at any parallelism setting.
struct DirectionOptions {
  enum class Mode {
    kAuto,    ///< heuristic: pull when the frontier is dense, push otherwise
    kOff,     ///< always push (the classic per-edge outbox walk)
    kAlways,  ///< always pull once any vertex broadcasts (testing/benching)
  };
  Mode mode = Mode::kAuto;
  /// Enter pull when frontier out-arcs > total arcs / alpha.
  double alpha = 15.0;
  /// Return to push when frontier vertices < total vertices / beta.
  double beta = 24.0;
};

/// Active vertices per frontier chunk when JobOptions::frontier_grain is 0.
/// 256 keeps a chunk's slice within a few cache lines of active indices
/// while giving a skewed partition enough chunks to spread across every
/// lane.
inline constexpr std::uint32_t kDefaultFrontierGrain = 256;

/// Per-run options.
struct JobOptions {
  /// PageRank-style: every vertex active in superstep 0 (roots must be empty).
  bool start_all_vertices = false;
  /// Root-parallel algorithms (BC, APSP): traversal roots, scheduled in
  /// swaths by `swath`.
  std::vector<VertexId> roots;
  SwathPolicy swath = SwathPolicy::single_swath();
  /// Safety valve against runaway programs.
  std::uint64_t max_supersteps = 1'000'000;
  /// Apply the program's combiner (when it defines one) at message delivery.
  /// Off by default: the paper's evaluation deliberately omits combiners;
  /// the combiner ablation bench turns this on.
  bool use_combiner = false;
  /// When a worker VM exceeds the restart threshold: throw JobFailure (true)
  /// or record the failure and keep simulating (false).
  bool fail_on_vm_restart = true;
  /// Memory-pressure governor (degradation ladder: veto/clamp -> spill/park
  /// -> governed-OOM restore). Budget comes from `swath.memory_target`;
  /// disabled by default, and with it enabled a restart-level breach is
  /// absorbed by the ladder instead of honoring fail_on_vm_restart.
  MemGovernorConfig governor;
  /// Host lanes executing a superstep's frontier chunks: 0 = one per
  /// hardware thread, N = exactly N lanes (capped at the partition count);
  /// 1 is one lane of the same chunk loop. Purely a wall-clock knob:
  /// results, modeled times, and every metric are bit-identical at any
  /// setting — compute stages its emissions per chunk and a deterministic
  /// merge applies them in serial (rank) order.
  std::uint32_t parallelism = 0;
  /// Active vertices per frontier chunk — a grain-sized slice of a
  /// partition's sorted active list, the unit of work the lanes steal from
  /// each other. Another pure wall-clock knob: chunk boundaries never change
  /// results, only load balance granularity. 0 = kDefaultFrontierGrain.
  std::uint32_t frontier_grain = 0;
  /// Direction optimization for programs that opt in; ignored by others.
  DirectionOptions direction;
};

/// Thrown when the cloud fabric restarts an unresponsive (memory-thrashed)
/// worker VM — the failure mode the paper observed when running swaths that
/// were too large ("spilling to virtual memory can lead workers to seem
/// unresponsive and the cloud fabric to restart the VM").
class JobFailure : public std::runtime_error {
 public:
  JobFailure(std::uint64_t superstep, std::uint32_t worker, Bytes memory, Bytes ram);

  std::uint64_t superstep() const noexcept { return superstep_; }
  std::uint32_t worker() const noexcept { return worker_; }
  Bytes memory() const noexcept { return memory_; }

 private:
  std::uint64_t superstep_;
  std::uint32_t worker_;
  Bytes memory_;
};

/// Per-job outcome common to all programs; Engine<Program>::run returns a
/// typed subclass carrying the final vertex values.
struct JobReport {
  JobMetrics metrics;
  bool failed = false;
  std::string failure_reason;
  std::uint64_t roots_completed = 0;
  std::uint64_t swaths_initiated = 0;
};

}  // namespace pregel
