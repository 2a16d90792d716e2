// EngineCore: the program-independent half of the Pregel++ engine — the
// paper's job manager (§III) and the modeled cluster it drives.
//
// Everything here reads partitions at the level the manager sees them:
// vertex lists, load and byte counters, active lists, wakes, placement,
// location tables. Nothing here can name a vertex value or a message type,
// so it is compiled once (engine_core.cpp) instead of once per program per
// translation unit. Engine<Program> (engine.hpp) derives from it and keeps
// the vertex half: values, inboxes, compute, routing and the merges.
//
// The core owns the run loop (start / advance) and, per superstep, the
// control plane, modeled timing ("the slowest worker" plus barrier
// overhead), the barrier (swath scheduling, scaling, placement, migration
// planning and pricing, scale-in), checkpoint/scrub, failure collection and
// recovery costing, and the memory-governor ladder. It calls back into the
// template only through the hooks below, none more than once per partition
// per barrier (inject_seed runs once per initiated root):
//   reset_partition_data    size values and inboxes for a new run
//   run_superstep           compute + route + merge one superstep
//   master_compute          the program's barrier hook, if it has one
//   inject_seed             deliver a swath root's seed message
//   snapshot/restore_partition_data   values and inboxes as an opaque
//                           payload stored beside the core's Snapshot
//   add_inbox_bytes         price a migration's buffered messages
//   move_partition_data     re-home values and inboxes after the core moved
//                           the partition metadata
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/ckpt_store.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/faults.hpp"
#include "cloud/manager.hpp"
#include "cloud/migration.hpp"
#include "cloud/queue.hpp"
#include "core/aggregates.hpp"
#include "core/config.hpp"
#include "graph/graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "runtime/metrics.hpp"

namespace pregel {

/// One flag per local vertex, packed 64 to a word, so listing the set
/// flags costs one load per 64 locals plus one step per set flag.
class LocalFlags {
 public:
  void assign(std::size_t n) { words_.assign((n + 63) / 64, 0); }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }
  bool test(std::uint32_t l) const { return (words_[l >> 6] >> (l & 63)) & 1; }
  /// Sets l's flag; false if it was already set.
  bool insert(std::uint32_t l) {
    const std::uint64_t bit = std::uint64_t{1} << (l & 63);
    if (words_[l >> 6] & bit) return false;
    words_[l >> 6] |= bit;
    return true;
  }
  void reset(std::uint32_t l) { words_[l >> 6] &= ~(std::uint64_t{1} << (l & 63)); }
  /// Appends every set local to `out` in ascending order and clears all.
  void drain_ascending(std::vector<std::uint32_t>& out) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        out.push_back(static_cast<std::uint32_t>(w * 64 + static_cast<unsigned>(std::countr_zero(bits))));
      words_[w] = 0;
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// One partition as the manager sees it: everything but vertex values and
/// inbox messages, which live in the template's per-partition data.
struct PartitionMeta {
  std::vector<VertexId> vertices;  ///< global ids, ascending
  /// Modeled bytes of the sealed inbox arena (cur) and of the arrival log
  /// (next).
  Bytes inbox_cur_bytes = 0, inbox_next_bytes = 0;
  std::vector<std::uint32_t> active_cur, active_next;
  LocalFlags in_active_next;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> wakes;
  std::int64_t state_bytes = 0;
  /// Per-vertex breakdown of state_bytes, maintained only when migration
  /// is possible this run — a moving vertex must carry its exact modeled
  /// state so both partitions' totals stay right.
  std::vector<std::int64_t> state_bytes_v;
  /// Delta-checkpoint dirty tracking, maintained only when the run writes
  /// delta generations: which locals mutated their value/state since the
  /// last *published* checkpoint (computed, minus computes the program
  /// declared write-free via ctx.state_unchanged()). Cleared on
  /// successful publish only, so a torn-manifest round leaves the next
  /// delta relative to the last generation a restore could actually
  /// read. Travels inside snapshots: a rollback replays with exactly the
  /// dirty sets the original execution had, so re-published generations
  /// are bit-identical.
  std::vector<std::uint8_t> dirty;
  Bytes graph_bytes = 0;
  Bytes outbuf_bytes = 0;  ///< serialized remote sends buffered this superstep
  cloud::WorkerLoad load;  ///< raw counters, reset each superstep
};

class EngineCore {
 public:
  virtual ~EngineCore() = default;
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  // ---- re-entrant (scheduled-slice) execution -------------------------------
  //
  // `start` + repeated `advance` + `finish` is exactly `run`, sliced at
  // superstep granularity so a multi-job scheduler (src/sched/) can
  // interleave many engines over a shared VM pool. Nothing engine-visible
  // happens between slices: pausing, preempting, and resuming a job leave
  // every value, modeled time, and metric bit-identical to the solo run.

  /// One `advance` outcome: the job wants another slice, or it is finished
  /// (halted, failed, or out of supersteps) and only `finish` remains.
  enum class StepStatus { kRunning, kDone };

  /// Begin a run: validate, reset state, simulate setup, and perform the
  /// pre-superstep-0 barrier (initial activation / first swath / implicit
  /// snapshot). Returns false when the job dies during setup — the caller
  /// should skip straight to finish().
  bool start(const JobOptions& opts, JobReport& result);

  /// Execute one superstep attempt (or one recovery/rewind replay step).
  /// Exactly one iteration of the classic run loop; kDone means the loop
  /// would have exited — call finish() to collect the result.
  StepStatus advance(JobReport& result);

  // ---- pool-facing accessors (read-only; consulted between slices) ---------

  /// VMs this job currently holds (the scheduler polls this after each slice
  /// to reclaim capacity the scale-in rung returned).
  std::uint32_t current_workers() const noexcept { return workers_now_; }
  std::uint64_t current_superstep() const noexcept { return superstep_; }
  /// Modeled spend so far (admission-control budget enforcement).
  Usd cost_so_far() const { return meter_.total_usd(); }
  Seconds vm_seconds_so_far() const { return meter_.total_vm_seconds(); }
  /// Manifest a scheduler persists via cloud::JobManager when preempting
  /// this job between slices; resuming later needs nothing else, because the
  /// engine object itself retains the (deterministic) in-memory state.
  cloud::ManagerManifest preemption_manifest() const { return current_manifest(); }

 protected:
  /// What the core needs to know about the program without naming its types.
  struct ProgramTraits {
    Bytes value_bytes = 0;          ///< sizeof(VertexValue): checkpoint/migration sizing
    bool has_seed_message = false;  ///< roots are allowed
  };

  /// One vertex a migration moves, with the bytes it carries.
  struct VertexMoveCost {
    VertexId v;
    PartitionId from, to;
    Bytes bytes;
  };

  /// The graph and partitioning must outlive the engine.
  EngineCore(const Graph& graph, ClusterConfig cluster, const Partitioning& partitioning,
             ProgramTraits traits);

  // ---- hooks the template implements --------------------------------------

  /// Size values and inboxes to parts_ and reset them for a new run (also
  /// the place to reset host-execution state). opts_ is already current.
  virtual void reset_partition_data() = 0;
  /// Compute, route and merge one superstep over the prepared frontier;
  /// record its direction and steal counts in `sm`.
  virtual void run_superstep(SuperstepMetrics& sm) = 0;
  virtual void master_compute() = 0;
  virtual void inject_seed(VertexId root) = 0;
  /// Deep copy of every partition's values and inbox.
  virtual std::shared_ptr<const void> snapshot_partition_data() const = 0;
  virtual void restore_partition_data(const void* payload) = 0;
  /// Add the modeled buffered bytes of donor partition p's movers to their
  /// moves; move_of[l] is the move index of local l (UINT32_MAX: stays).
  virtual void add_inbox_bytes(PartitionId p, std::span<const std::uint32_t> move_of,
                               std::vector<VertexMoveCost>& moves) const = 0;
  /// Re-home values and buffered messages after a migration rebuilt the
  /// metadata of the `affected` partitions. source[i][nl] is the old
  /// (partition, local) of affected[i]'s new local nl; `old` holds the
  /// affected partitions' metadata before the move; part_of_/local_of_
  /// already describe the new layout. Re-homed buffered bytes go to
  /// parts_[..].inbox_next_bytes.
  virtual void move_partition_data(
      std::span<const PartitionId> affected,
      const std::vector<std::vector<std::pair<PartitionId, std::uint32_t>>>& source,
      const std::unordered_map<PartitionId, PartitionMeta>& old) = 0;

  // ---- services for the template ------------------------------------------

  /// Worker VM hosting partition p (placement table; default p mod workers).
  std::uint32_t vm_of(std::uint32_t partition) const noexcept { return placement_[partition]; }
  void activate_local(std::uint32_t partition, std::uint32_t local) {
    PartitionMeta& ps = parts_[partition];
    if (ps.in_active_next.insert(local)) ps.active_next.push_back(local);
  }
  /// O(1) amortized root completion: tombstone the entry, drop its index
  /// record, and compact when tombstones reach half the array. Initiation
  /// order of the survivors is preserved throughout.
  void mark_root_done(VertexId root);
  /// Roots initiated and not yet completed, in initiation order.
  const std::vector<VertexId>& active_roots() {
    compact_outstanding_roots();
    return swath_.outstanding_roots;
  }
  /// Fill the report's totals (cost, VM-seconds, roots, swaths).
  void collect_report(JobReport& result);

  // ---- state the template reads -------------------------------------------

  const Graph* graph_;
  ClusterConfig cluster_;
  cloud::CostModel cost_;
  JobOptions opts_;
  std::uint64_t superstep_ = 0;
  bool halt_requested_ = false;
  std::uint64_t last_active_vertices_ = 0;

  std::vector<PartitionMeta> parts_;
  std::vector<PartitionId> part_of_;
  std::vector<std::uint32_t> local_of_;
  /// Home partition per vertex (build-time assignment) — immutable per run
  /// even as part_of_ changes, so combiner domains stay stable.
  std::vector<PartitionId> orig_part_;
  /// Immutable global serial rank per vertex (partition-major, ascending
  /// within partition) — the key the post-migration merges order by. It
  /// derives from the build-time assignment only, so it never changes.
  std::vector<std::uint32_t> rank_of_;
  /// At least one migration has been applied this run: prepare/merge/replay
  /// switch to rank ordering.
  bool migrated_ = false;
  std::vector<std::uint32_t> placement_;

  Aggregates agg_cur_;
  Globals globals_, globals_next_;

  /// Delta sizing active this run (checkpointing on + delta mode on).
  bool track_dirty_ = false;
  /// Confined recovery keeps a per-superstep log of remote outbox bytes,
  /// indexed [src_partition][dst_partition]; deliver() feeds it.
  bool log_outboxes_ = false;
  std::vector<Bytes> outbox_log_cur_;

 private:
  /// Spill relief is offered to the swath sizers only while the modeled
  /// blob round-trip stays below this fraction of a superstep span —
  /// spilling that dominates the superstep is not relief, it is thrash.
  static constexpr double kSpillCheapFraction = 0.25;

  /// The master's root and swath scheduling state: exactly what a snapshot
  /// carries for it (the root index and tombstone count derive from it).
  struct SwathState {
    std::vector<VertexId> pending_roots;
    std::size_t next_root = 0;
    /// Outstanding roots in initiation order; completed entries are
    /// tombstoned with kInvalidVertex and compacted when they reach half
    /// the array.
    std::vector<VertexId> outstanding_roots;
    std::uint64_t roots_completed = 0;
    std::uint32_t swath_index = 0;
    std::uint32_t last_swath_size = 0;
    std::uint64_t supersteps_since_initiation = 0;
    Bytes peak_memory_since_initiation = 0;
    std::uint64_t last_messages_sent = 0;
  };

  /// Deep snapshot of all state a recovery must restore: partition metadata,
  /// the template's values and inboxes, and master-side scheduling state.
  /// Deliberately excludes policy-object internals (the job manager survives
  /// worker failures) and metrics (an execution log, not job state).
  struct Snapshot {
    std::vector<PartitionMeta> parts;
    std::shared_ptr<const void> data;  ///< snapshot_partition_data()
    std::uint64_t superstep;
    Globals globals;
    SwathState swath;
    /// Vertex location tables at snapshot time — only captured when
    /// migration is possible this run (empty otherwise): a restore must
    /// rewind any moves applied after the checkpoint.
    std::vector<PartitionId> part_of;
    std::vector<std::uint32_t> local_of;
    bool migrated = false;
  };

  /// One barrier's worth of worker deaths: the lost VMs (sorted, unique)
  /// and, when they fell together, the availability zone that took them.
  struct FailureEvent {
    std::vector<std::uint32_t> dead;
    std::optional<std::uint32_t> zone;
  };

  /// Is anything restorable after a failure event, and which generation will
  /// the restore walk land on? The plan carries the chosen generation, its
  /// fallback depth, and per-partition download bytes.
  struct RecoveryAssessment {
    std::optional<cloud::CkptRestorePlan> plan;
    std::string reason;  ///< unrecoverable-why, appended to the failure text
  };

  enum class GovernorVerdict { kProceed, kRewound, kFailed };

  JobMetrics& metrics() { return report_->metrics; }

  // run lifecycle
  void build_partitions(const std::vector<PartitionId>& assignment);
  Bytes partition_graph_bytes(const std::vector<VertexId>& vertices) const;
  void validate(const JobOptions& opts) const;
  void reset_run_state(const JobOptions& opts);
  bool simulate_setup();
  void prepare_superstep();
  bool any_activity() const;
  bool any_pending_activity() const;
  SuperstepMetrics execute_superstep();

  // modeled time
  /// Every modeled stall goes through here: add `t` to its category (a
  /// JobMetrics field or the superstep span), to total_time, and to the
  /// bill of the VMs the job holds.
  void charge_stall(Seconds& category, Seconds t);
  bool finalize_timing(SuperstepMetrics& sm);
  void trace_superstep(const SuperstepMetrics& sm, Seconds total_time_after);

  // placement and memory baselines
  void reset_placement_to_modulo();
  void recompute_baseline_memory();
  Bytes partition_resident_bytes(const PartitionMeta& ps) const;

  // barrier
  void run_barrier();
  void apply_scaling_decision();
  void apply_placement_policy();
  void maybe_scale_in();
  /// A new VM count: default layout, fresh straggler history and baseline,
  /// the partition moves charged over the transfer planes when
  /// `charge_moves`, and a planner rebalance when migration rides scaling
  /// events (`why` labels its trace).
  void resize_fleet(std::uint32_t workers, bool charge_moves, const char* why);
  void maybe_initiate_swath(bool at_startup);

  // control plane
  cloud::RetryOutcome control_op(cloud::FaultKind kind);
  void guarded_control_op(cloud::FaultKind kind, std::uint32_t vm);
  void settle_control_latency(SuperstepMetrics& sm);
  cloud::ManagerManifest current_manifest() const;
  void control_superstep_begin();
  void manager_failover();
  void control_superstep_end(const SuperstepMetrics& sm);

  // checkpoints
  std::shared_ptr<Snapshot> make_snapshot(std::uint64_t resume_superstep);
  const Snapshot* newest_snapshot() const {
    return static_cast<const Snapshot*>(ckpt_.newest_payload());
  }
  Snapshot* newest_snapshot_mut() { return static_cast<Snapshot*>(ckpt_.newest_payload()); }
  Bytes full_leg_bytes(std::uint32_t p) const;
  Bytes delta_leg_bytes(std::uint32_t p) const;
  Bytes checkpoint_bytes(std::uint32_t vm) const;
  Bytes biggest_checkpoint_bytes() const;
  /// One blob write per worker, uploaded in parallel: the worst retry
  /// latency bounds the barrier extension, and the round lands only when
  /// every write does.
  struct UploadRound {
    Seconds extra_latency = 0.0;
    bool success = true;
  };
  UploadRound upload_round();
  void maybe_checkpoint();
  void maybe_scrub();

  // failures and recovery
  std::string failure_description(const FailureEvent& event) const;
  FailureEvent collect_failures();
  std::optional<std::uint32_t> failure_strikes();
  bool confined_replay_active() const noexcept { return !replay_lost_vms_.empty(); }
  bool replay_lost(std::uint32_t vm) const noexcept;
  Bytes redelivery_bytes(std::uint32_t vm) const;
  void restore_snapshot_state(const Snapshot& s);
  RecoveryAssessment assess_recovery(const FailureEvent& event);
  Bytes plan_restore_bytes(const cloud::CkptRestorePlan& plan, std::uint32_t vm) const;
  /// A checkpoint download under the retry policy: `detection` (failure
  /// detection + VM reacquisition, or zero for a manager-ordered rewind),
  /// then `bytes` over the NIC, then `handoff`, then the read's retry
  /// latency, plus one op deadline when the read ran out of retries.
  Seconds restore_read_time(Seconds detection, Bytes bytes, Seconds handoff);
  void rewind(const Snapshot& s, Seconds& category, Seconds stall);
  void recover_from_checkpoint(const cloud::CkptRestorePlan& plan,
                               const std::vector<std::uint32_t>& dead, bool confined);
  void reinitiate_after_restore();

  // memory-pressure governor
  std::uint32_t parkable_root_count() const;
  GovernorVerdict governor_step();
  void shed_newest_roots();
  void governed_oom_restore();
  void governor_scale_out();

  // live vertex migration
  double active_next_imbalance() const;
  void plan_and_migrate(const char* why);
  bool apply_migration_plan(const MigrationPlan& plan, const char* why);
  void rebuild_partitions_for_moves(const std::vector<VertexMoveCost>& moves);
  void charge_partition_redistribution(const std::vector<std::uint32_t>& old_placement);
  /// Run migration transfers through the executor and charge their stall;
  /// returns the outcome for the caller's own bookkeeping.
  cloud::MigrationOutcome execute_transfers(
      const std::vector<cloud::MigrationTransfer>& transfers);

  // roots
  std::size_t outstanding_count() const noexcept {
    return swath_.outstanding_roots.size() - root_tombstones_;
  }
  void compact_outstanding_roots();
  void rebuild_root_index();

  // ---- data ----------------------------------------------------------------

  const ProgramTraits traits_;
  cloud::CostMeter meter_;
  cloud::QueueService queues_;
  /// The report passed to the start/advance call in progress; every
  /// barrier member charges and counts into it.
  JobReport* report_ = nullptr;

  /// The run's initial vertex->partition assignment; a prior run's
  /// migrations are undone from this before the next run starts.
  std::vector<PartitionId> initial_assignment_;
  /// This run could migrate (planner installed or governor scale-out armed):
  /// keep per-vertex state bytes.
  bool migration_possible_ = false;
  /// parts_ no longer match initial_assignment_; rebuild on next run.
  bool parts_dirty_ = false;

  std::uint32_t workers_now_ = 1;
  bool workers_changed_ = false;
  /// Superstep attempts this run (includes recovery/rewind replays); the
  /// 4x max_supersteps runaway guard the classic loop applied, kept as a
  /// member so a scheduler can slice the run across advance() calls.
  std::uint64_t executed_ = 0;
  /// Scale-in debounce: consecutive quiet (below-threshold) barriers, and
  /// barriers left before the next retirement is considered.
  std::uint32_t scale_in_quiet_ = 0;
  std::uint32_t scale_in_cooldown_ = 0;
  bool last_pull_mode_ = false;  ///< previous superstep, for the switch count

  SwathState swath_;
  /// root -> position in swath_.outstanding_roots (first occurrence; live
  /// entries only).
  std::unordered_map<VertexId, std::size_t> outstanding_index_;
  std::size_t root_tombstones_ = 0;
  Bytes baseline_memory_ = 0;

  /// Generational checkpoint store: generation 0 (the input graph) plus
  /// every published base/delta generation, each holding its Snapshot as an
  /// opaque payload. See src/cloud/ckpt_store.hpp and docs/FAULTS.md.
  cloud::CkptStore ckpt_;
  /// Barriers since the last background scrub pass (CkptOptions::scrub_period).
  std::uint32_t barriers_since_scrub_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scheduled_failures_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scheduled_zone_outages_;
  std::uint64_t failure_epoch_ = 0;

  /// Memory-pressure governor state: the ladder itself plus this superstep's
  /// observation inputs (pre-spill peak, post-spill peak, restart breach).
  MemGovernor governor_;
  bool governor_breach_ = false;
  Bytes last_unspilled_peak_ = 0;
  Bytes last_post_spill_peak_ = 0;
  /// Spillable bytes (message buffers) on the peak VM at the swath's peak
  /// superstep — feeds the sizers' spill-relief discount.
  Bytes peak_spillable_since_initiation_ = 0;
  /// Span of the most recent superstep; prices shed-vs-scale-out replay.
  Seconds last_superstep_span_ = 0.0;

  cloud::FaultInjector faults_;
  Seconds pending_retry_latency_ = 0.0;
  /// First worker whose control op exhausted the retry budget this superstep.
  std::optional<std::uint32_t> control_failed_vm_;
  /// Confined replay in progress: the VMs whose partitions are recomputing
  /// (one for a lone failure, a whole domain after a zone outage), and the
  /// superstep at which replay catches up to the failure point.
  std::vector<std::uint32_t> replay_lost_vms_;
  std::uint64_t confined_replay_until_ = 0;
  /// Job-manager replica pair: fencing epoch, CRC-verified manifest,
  /// failover state machine (see src/cloud/manager.hpp).
  cloud::JobManager manager_;
  /// Version of the partition/vertex location tables, bumped on every
  /// placement change or migration; persisted in the manager manifest so a
  /// standby can tell whether its routing state is stale.
  std::uint64_t location_version_ = 0;
  /// Availability-zone labeling of the worker fleet (1 zone = off).
  cloud::ZoneMap zones_;
  std::vector<std::uint32_t> vm_straggler_counts_;
  Seconds pending_placement_cost_ = 0.0;

  /// Modeled-clock cursor (microseconds of simulated time elapsed so far),
  /// used only to place trace events on the virtual cluster track. Purely
  /// observational; never read by the simulation itself.
  double virtual_now_us_ = 0.0;
};

}  // namespace pregel
