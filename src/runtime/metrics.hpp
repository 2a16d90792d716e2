// Per-superstep, per-worker execution metrics.
//
// Every figure in the paper's evaluation is a projection of these records:
// messages per superstep (Figs 3, 7, 10-14), memory over time (Fig 5),
// compute+I/O vs barrier-wait split and utilization (Figs 9, 12), active
// vertices and per-superstep speedups (Fig 15), elastic time/cost
// projections (Fig 16).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace pregel {

/// Raw activity counts of one worker (or one partition, one chunk, one
/// source-destination link) within one superstep: what the cost model
/// prices (cloud/cost_model.hpp). The exported worker row extends it, so it
/// shows exactly the counts that were priced.
struct WorkerLoad {
  std::uint64_t vertices_computed = 0;
  std::uint64_t messages_processed = 0;  ///< drained from the previous superstep
  std::uint64_t messages_sent_local = 0;
  std::uint64_t messages_sent_remote = 0;
  /// Internal sequential work performed by subgraph-centric programs (edge
  /// relaxations, union-find operations, Gauss-Seidel updates...). Zero for
  /// vertex-centric programs. Charged separately from vertices_computed so
  /// the barrier's active-count audit stays exact while local-convergence
  /// sweeps are still priced.
  std::uint64_t subgraph_ops = 0;
  Bytes bytes_sent_remote = 0;
  Bytes bytes_received_remote = 0;
  Bytes memory_peak = 0;  ///< graph partition + buffered messages + vertex state

  /// Field-by-field integer sum: folds per-chunk, per-link and per-partition
  /// loads into their owner. Order-free, so any fold order gives the same
  /// totals.
  WorkerLoad& operator+=(const WorkerLoad& o) noexcept {
    vertices_computed += o.vertices_computed;
    messages_processed += o.messages_processed;
    messages_sent_local += o.messages_sent_local;
    messages_sent_remote += o.messages_sent_remote;
    subgraph_ops += o.subgraph_ops;
    bytes_sent_remote += o.bytes_sent_remote;
    bytes_received_remote += o.bytes_received_remote;
    memory_peak += o.memory_peak;
    return *this;
  }
};

/// One worker VM's load and modeled timing within one superstep.
struct WorkerStepMetrics : WorkerLoad {
  /// Message-buffer bytes the memory governor moved to blob storage this
  /// superstep; memory_peak is net of them (spilled = off-VM).
  Bytes spilled_bytes = 0;

  Seconds compute_time = 0.0;
  Seconds network_time = 0.0;
  /// span - (compute + network): idle time at the barrier waiting for the
  /// slowest worker. The paper's Figures 9/12 "Barrier Wait".
  Seconds barrier_wait = 0.0;

  std::uint64_t messages_sent_total() const noexcept {
    return messages_sent_local + messages_sent_remote;
  }
  Seconds busy_time() const noexcept { return compute_time + network_time; }
};

/// One superstep across the whole cluster.
struct SuperstepMetrics {
  std::uint64_t superstep = 0;
  std::uint32_t active_workers = 0;
  std::vector<WorkerStepMetrics> workers;  ///< size == active_workers

  std::uint64_t active_vertices = 0;  ///< vertices that computed
  std::uint64_t active_roots = 0;     ///< initiated-but-incomplete roots (root algos)
  /// Modeled wall time of the superstep: max over workers of busy time,
  /// plus the barrier/control overhead.
  Seconds span = 0.0;
  Seconds barrier_overhead = 0.0;

  /// Whether the direction-optimizing engine ran this superstep in pull
  /// mode. Decided from modeled frontier density only, so it is part of the
  /// bit-identity contract (same at any parallelism).
  bool pull_mode = false;
  /// Work-stealing activity among host lanes draining the frontier chunks.
  /// These are wall-clock artifacts of the OS scheduler — two runs of the
  /// same job may steal differently — so they are exempt from the
  /// bit-identity contract and must never feed modeled times or costs.
  std::uint64_t steals = 0;
  std::uint64_t stolen_chunks = 0;

  std::uint64_t messages_sent_total() const noexcept;
  std::uint64_t messages_sent_remote() const noexcept;
  Bytes max_worker_memory() const noexcept;
  /// Paper's "VM utilization %": busy time over total worker-seconds.
  double utilization() const noexcept;
};

/// Whole-job rollup.
struct JobMetrics {
  std::vector<SuperstepMetrics> supersteps;

  Seconds total_time = 0.0;   ///< setup + sum of spans + recovery
  Seconds setup_time = 0.0;   ///< graph download/load/topology
  Usd cost_usd = 0.0;
  Seconds vm_seconds = 0.0;

  // Fault tolerance (checkpoint/recovery — Pregel's omitted-in-the-paper
  // extension, implemented here).
  std::uint32_t checkpoints_written = 0;
  Seconds checkpoint_time = 0.0;  ///< included in total_time
  std::uint32_t worker_failures = 0;
  Seconds recovery_time = 0.0;    ///< detection + reacquire + reload; in total_time
  std::uint64_t replayed_supersteps = 0;  ///< work re-executed after rollbacks
  /// Rollback scope this job ran under: "none", "full-rollback", "confined".
  std::string recovery_mode = "none";
  /// Wall time spent in confined-replay supersteps (healthy workers only
  /// re-deliver logged outboxes while the replacement VM recomputes);
  /// included in total_time.
  Seconds confined_replay_time = 0.0;
  /// Checkpoint uploads abandoned after exhausting the retry budget (the
  /// previous checkpoint stays in force).
  std::uint32_t checkpoint_failures = 0;
  /// Cross-zone replica rounds abandoned (the primary generation published
  /// fine; only the replica copies are missing). Distinct from
  /// checkpoint_failures, which counts lost primary rounds.
  std::uint32_t checkpoint_replica_failures = 0;

  // Generational checkpoint store (docs/FAULTS.md "Checkpoint store").
  std::uint32_t checkpoint_bases = 0;       ///< full generations published
  std::uint32_t checkpoint_deltas = 0;      ///< delta generations published
  Bytes checkpoint_base_bytes = 0;          ///< data-leg bytes in base rounds
  Bytes checkpoint_delta_bytes = 0;         ///< data-leg bytes in delta rounds
  std::uint32_t checkpoint_torn_manifests = 0;  ///< rounds lost at the publish step
  std::uint32_t checkpoint_torn_legs = 0;       ///< data legs that landed torn
  /// Restores that fell back past the newest generation, and the deepest
  /// fallback (published generations skipped) any restore needed.
  std::uint32_t checkpoint_fallbacks = 0;
  std::uint32_t checkpoint_fallback_depth_max = 0;
  std::uint32_t checkpoint_corrupt_legs = 0;      ///< torn/rotted legs hit on restore walks
  std::uint32_t checkpoint_corrupt_manifests = 0; ///< manifests failing chain verification
  std::uint32_t checkpoint_replica_reads = 0;     ///< restore legs served by the replica
  std::uint32_t scrub_passes = 0;
  std::uint64_t scrub_copies_verified = 0;
  std::uint32_t scrub_repairs = 0;          ///< rotted/torn copies re-replicated
  Seconds scrub_time = 0.0;                 ///< re-replication transfers; in total_time
  std::uint32_t ckpt_gc_generations = 0;    ///< generations retired by retention GC
  std::uint64_t ckpt_gc_delete_ops = 0;     ///< priced blob delete operations

  // Transient-fault injection and the retries masking it.
  std::uint64_t faults_injected = 0;   ///< transient queue/blob failures drawn
  std::uint64_t faults_masked = 0;     ///< of those, recovered by a retry
  std::uint64_t retries_attempted = 0; ///< extra attempts beyond each op's first
  Seconds retry_latency = 0.0;         ///< backoff + failed attempts; in total_time
  /// Barrier straggler timeouts that fired (slow worker's partitions
  /// speculatively re-executed on the least-loaded VM).
  std::uint32_t straggler_reexecutions = 0;

  /// Azure-queue operations used by the control plane (step tokens + barrier
  /// check-ins through the simulated queue service).
  std::uint64_t control_queue_ops = 0;

  // Frontier execution (chunk work stealing + direction optimization; see
  // docs/MODEL.md). Steal counts are host-scheduling artifacts excluded from
  // the bit-identity contract; pull counts are modeled and covered by it.
  std::uint64_t work_steals = 0;        ///< lane-to-lane chunk transfers
  std::uint64_t stolen_chunks = 0;      ///< chunks moved across all steals
  std::uint64_t pull_supersteps = 0;    ///< supersteps executed in pull mode
  std::uint64_t direction_switches = 0; ///< push<->pull transitions

  /// Blob reads that returned a payload failing CRC32C verification; each is
  /// escalated to a retriable failure (and counted in faults_injected too).
  std::uint64_t blob_corruptions = 0;

  /// Queue operations that delivered a message failing CRC32C verification
  /// (data-plane analog of blob_corruptions; also in faults_injected).
  std::uint64_t queue_corruptions = 0;

  // Control-plane failures (job-manager failover, at-least-once barrier
  // protocol, correlated failure domains — see docs/FAULTS.md).
  /// Manager preemptions survived by a standby takeover, and the lease
  /// detection + takeover + manifest reload latency charged for them (folded
  /// into barrier overhead and total_time).
  std::uint32_t manager_failovers = 0;
  Seconds manager_failover_time = 0.0;
  /// Redelivered barrier check-ins deduped per (worker, superstep, epoch).
  std::uint64_t barrier_duplicates = 0;
  /// Stale-epoch barrier messages fenced off (zombie senders).
  std::uint64_t barrier_fenced = 0;
  /// Barriers where a worker never checked in and the manager charged a
  /// detection timeout instead of asserting.
  std::uint32_t barrier_detection_timeouts = 0;
  /// Whole availability zones preempted at once by the zone-outage stream.
  std::uint32_t zone_outages = 0;
  /// Cross-zone checkpoint replica uploads that completed.
  std::uint32_t checkpoint_replicas_written = 0;

  // Vertex migration / rebalancing (see docs/ELASTICITY.md).
  std::uint32_t migrations = 0;            ///< migration events executed
  std::uint64_t migrated_vertices = 0;     ///< vertices moved across all events
  Bytes migrated_bytes = 0;                ///< state+adjacency+inbox bytes moved
  Seconds migration_time = 0.0;            ///< transfer stalls; in total_time
  /// Sum over migration events of (per-VM active-vertex imbalance before −
  /// after), where imbalance = max/mean. Positive = plans helped.
  double rebalance_gain = 0.0;
  /// Governor hard-watermark episodes resolved by scaling out + migrating
  /// instead of shedding (no rewind).
  std::uint32_t governor_scale_outs = 0;
  /// Scale-in rung: VMs retired mid-job after the frontier collapsed, their
  /// partitions re-homed through the migration executor (docs/SCHEDULER.md).
  std::uint32_t scale_ins = 0;

  // Memory-pressure governor (degradation ladder; see docs/FAULTS.md).
  std::uint32_t governor_vetoes = 0;       ///< swath initiations skipped (soft watermark)
  std::uint32_t governor_swath_clamps = 0; ///< sizer proposals cut to headroom
  std::uint32_t governor_sheds = 0;        ///< rewinds that parked in-flight roots
  std::uint64_t governor_roots_parked = 0; ///< roots parked across all sheds
  std::uint32_t governor_spills = 0;       ///< VM-supersteps that spilled buffers
  Bytes governor_spill_bytes = 0;          ///< total bytes moved to blob storage
  Seconds governor_spill_time = 0.0;       ///< spill round-trip I/O; in total_time
  Seconds governor_shed_time = 0.0;        ///< shed rewind cost; in total_time
  /// Restart-level breaches absorbed by checkpoint restore + halved swath
  /// cap instead of failing the job.
  std::uint32_t governed_oom_episodes = 0;

  std::uint64_t total_messages() const noexcept;
  std::uint64_t total_supersteps() const noexcept { return supersteps.size(); }
  Bytes peak_worker_memory() const noexcept;
  Seconds total_barrier_wait() const noexcept;
  Seconds total_busy_time() const noexcept;
  /// busy / (busy + wait): aggregate utilization over the job.
  double utilization() const noexcept;
};

/// The bit-identity contract in one call: "" when both records have the same
/// superstep and worker shapes and every modeled field (runtime/metric_fields.hpp)
/// is equal, doubles by bit pattern. Otherwise the first differing path with
/// both values, e.g. "supersteps[3].workers[1].network_seconds: 0.25 vs
/// 0.25000000000000006". Host-only fields (work steals) are not compared.
std::string first_modeled_difference(const JobMetrics& a, const JobMetrics& b);

// ---------------------------------------------------------------------------
// Multi-job serving (src/sched/): per-job and pool-level rollups.

/// One admitted job's scheduling outcome, as seen from the pool. Everything
/// the engine modeled (values, JobMetrics) lives in the job's own result;
/// these rows add only what the *scheduler* caused — queue wait, preemptions,
/// slices — so the engine-side numbers stay bit-identical to a solo run.
struct JobRow {
  std::uint64_t id = 0;
  std::string name;
  std::string user;
  std::string state;          ///< "done", "failed", "rejected"
  Seconds arrival = 0.0;      ///< modeled submission time
  Seconds admitted = 0.0;     ///< first admission (== arrival when no queue)
  Seconds completed = 0.0;    ///< pool clock at completion
  Seconds wait_time = 0.0;    ///< queued + preempted time, outside the engine
  Seconds run_time = 0.0;     ///< the engine's modeled total_time
  Usd cost_usd = 0.0;         ///< the engine's modeled spend
  std::uint32_t workers_peak = 0;
  std::uint32_t workers_final = 0;  ///< after any scale-in retirements
  std::uint32_t preemptions = 0;
  std::uint32_t scale_ins = 0;
  std::uint64_t supersteps = 0;
  /// The job's advisory completion target (JobSpec::deadline; 0 = none).
  Seconds deadline = 0.0;
  /// True when a deadline was set and the job did not complete by it —
  /// finished late, failed, or was rejected. Observability only; no policy
  /// acts on it yet.
  bool missed_deadline = false;
};

/// Pool-level rollup of one scheduler run. `jobs_per_hour_per_usd` is the
/// serving layer's headline metric: completed jobs per modeled pool-hour per
/// dollar of modeled spend (engine costs + scheduler overheads).
struct PoolMetrics {
  std::string policy;               ///< queue policy name
  std::uint32_t pool_vms = 0;
  std::uint32_t jobs_submitted = 0;
  std::uint32_t jobs_completed = 0;
  std::uint32_t jobs_failed = 0;
  std::uint32_t jobs_rejected = 0;  ///< failed admission control
  /// Jobs with a deadline that did not complete by it (late, failed, or
  /// rejected). Sum of JobRow::missed_deadline.
  std::uint32_t deadline_misses = 0;
  std::uint32_t preemptions = 0;
  std::uint32_t resumes = 0;
  std::uint32_t scale_ins = 0;      ///< VMs reclaimed mid-job across all jobs
  Seconds makespan = 0.0;           ///< last completion − first arrival
  Seconds total_wait = 0.0;         ///< sum of JobRow::wait_time
  Usd total_cost_usd = 0.0;         ///< job spend + preemption overheads
  Seconds vm_seconds = 0.0;
  Seconds preemption_overhead = 0.0; ///< manifest persist/reload time, priced
  double jobs_per_hour_per_usd = 0.0;
  /// Busy VM-seconds over pool VM-seconds (pool_vms x makespan).
  double pool_utilization = 0.0;
};

}  // namespace pregel
