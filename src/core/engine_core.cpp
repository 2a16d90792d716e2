#include "core/engine_core.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <type_traits>
#include <unordered_set>
#include <variant>

#include "runtime/metric_fields.hpp"
#include "runtime/trace.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace pregel {

EngineCore::EngineCore(const Graph& graph, ClusterConfig cluster,
                       const Partitioning& partitioning, ProgramTraits traits)
    : graph_(&graph),
      cluster_(std::move(cluster)),
      cost_(cluster_.cost),
      traits_(traits),
      faults_(cluster_.faults) {
  cluster_.retry.validate();
  PREGEL_CHECK_MSG(cluster_.num_partitions >= 1, "Engine: need >= 1 partition");
  PREGEL_CHECK_MSG(
      cluster_.initial_workers >= 1 && cluster_.initial_workers <= cluster_.num_partitions,
      "Engine: initial_workers must be in [1, num_partitions]");
  PREGEL_CHECK_MSG(partitioning.num_vertices() == graph.num_vertices(),
                   "Engine: partitioning does not match graph");
  PREGEL_CHECK_MSG(partitioning.num_parts() == cluster_.num_partitions,
                   "Engine: partitioning has wrong number of parts");
  initial_assignment_ = partitioning.assignment();
  build_partitions(initial_assignment_);
}

// ---- run lifecycle -----------------------------------------------------------

bool EngineCore::start(const JobOptions& opts, JobReport& result) {
  report_ = &result;
  validate(opts);
  reset_run_state(opts);

  // The governor's anchor checkpoint makes a run recoverable without
  // periodic checkpoints (see the seeding below).
  metrics().recovery_mode = cluster_.checkpoint_interval > 0 || governor_.enabled()
                                ? to_string(cluster_.recovery_mode)
                                : "none";
  if (!simulate_setup()) return false;

  // Barrier before superstep 0: activate all vertices (PageRank-style) or
  // inject the first swath of roots.
  if (opts.start_all_vertices) {
    for (std::uint32_t p = 0; p < parts_.size(); ++p)
      for (std::uint32_t l = 0; l < parts_[p].vertices.size(); ++l) activate_local(p, l);
  } else {
    // The governor's rewind anchor must precede the first initiation:
    // only then can rungs 2-3 park roots of the startup swath or replay it
    // under a halved size cap (a restore re-initiates, clamped, below).
    if (governor_.enabled()) ckpt_.seed_initial(make_snapshot(0));
    maybe_initiate_swath(/*at_startup=*/true);
  }

  // With fault tolerance on, the initial state is implicitly recoverable
  // (the input graph lives in blob storage): a failure before the first
  // periodic checkpoint restarts from superstep 0 instead of losing the
  // job. No upload is charged — nothing new needs writing. (Seeding is a
  // no-op once a generation 0 exists.)
  if ((cluster_.checkpoint_interval > 0 || governor_.enabled()) && !ckpt_.has_checkpoint())
    ckpt_.seed_initial(make_snapshot(0));
  return true;
}

EngineCore::StepStatus EngineCore::advance(JobReport& result) {
  report_ = &result;
  if (result.failed) return StepStatus::kDone;
  if (!(superstep_ < opts_.max_supersteps && executed_++ < 4 * opts_.max_supersteps))
    return StepStatus::kDone;
  prepare_superstep();
  if (!any_activity()) return StepStatus::kDone;

  // Control plane, exactly as §III describes: the manager posts one
  // superstep token per worker to the "step" queue; each worker dequeues
  // its token, computes, then checks in through the "barrier" queue with
  // its active-vertex count, which the manager drains to decide halting.
  // Every queue op runs under the retry policy: transient failures are
  // masked at backoff cost, an exhausted budget kills the worker.
  control_superstep_begin();

  SuperstepMetrics sm = execute_superstep();
  const bool restarted = finalize_timing(sm);
  control_superstep_end(sm);
  settle_control_latency(sm);
  if (confined_replay_active()) metrics().confined_replay_time += sm.span;
  metrics().supersteps.push_back(std::move(sm));
  if (restarted) return StepStatus::kDone;

  // Worker failure (fault-injection model): a worker missing the barrier
  // — VM death, spot preemption, a control op past its retry budget, or
  // a whole availability zone going dark — is detected by the job
  // manager. With a checkpoint we roll back (confined to the lost
  // partitions when so configured) and replay; without one the job is
  // lost (Pregel without fault tolerance).
  const FailureEvent event = collect_failures();
  if (!event.dead.empty()) {
    metrics().worker_failures += static_cast<std::uint32_t>(event.dead.size());
    // One assessment serves every recovery path: is anything restorable
    // at all, and which generation will the restore walk land on?
    RecoveryAssessment assessment = assess_recovery(event);
    if (!assessment.plan) {
      result.failed = true;
      result.failure_reason = failure_description(event) + " at superstep " +
                              std::to_string(superstep_) + " " + assessment.reason;
      return StepStatus::kDone;
    }
    const bool confined =
        cluster_.recovery_mode == RecoveryMode::kConfined && !confined_replay_active();
    recover_from_checkpoint(*assessment.plan, event.dead, confined);
    return StepStatus::kRunning;  // re-execute from the restored superstep
  }

  // Memory-pressure governor, rungs 2-3: at the barrier, decide whether
  // this superstep's pressure warrants parking roots (shed) or a
  // governed-OOM restore. Both rewind to the snapshot and re-execute.
  const GovernorVerdict verdict = governor_step();
  if (verdict == GovernorVerdict::kRewound) return StepStatus::kRunning;
  if (verdict == GovernorVerdict::kFailed) return StepStatus::kDone;

  run_barrier();
  maybe_checkpoint();
  maybe_scrub();
  if (halt_requested_) return StepStatus::kDone;
  ++superstep_;
  if (!replay_lost_vms_.empty() && superstep_ > confined_replay_until_)
    replay_lost_vms_.clear();
  return StepStatus::kRunning;
}

void EngineCore::collect_report(JobReport& result) {
  result.metrics.cost_usd = meter_.total_usd();
  result.metrics.vm_seconds = meter_.total_vm_seconds();
  result.roots_completed = swath_.roots_completed;
  result.swaths_initiated = swath_.swath_index;
}

/// (Re)build partition metadata from the run's initial assignment. Also
/// derives the immutable per-run serial order: rank_of_[v] numbers every
/// vertex in the order a single lane visits it (partition-major,
/// ascending within each partition). Message delivery in the unmigrated
/// run happens exactly in sender-rank order, which is what lets the
/// post-migration merge reproduce it bit-for-bit.
void EngineCore::build_partitions(const std::vector<PartitionId>& assignment) {
  const VertexId n = graph_->num_vertices();
  part_of_.resize(n);
  local_of_.resize(n);
  parts_.assign(cluster_.num_partitions, {});
  for (VertexId v = 0; v < n; ++v) {
    const PartitionId p = assignment[v];
    part_of_[v] = p;
    local_of_[v] = static_cast<std::uint32_t>(parts_[p].vertices.size());
    parts_[p].vertices.push_back(v);
  }
  for (auto& ps : parts_) {
    ps.in_active_next.assign(ps.vertices.size());
    ps.graph_bytes = partition_graph_bytes(ps.vertices);
  }
  orig_part_ = part_of_;
  rank_of_.resize(n);
  std::uint32_t r = 0;
  for (const auto& ps : parts_)
    for (const VertexId v : ps.vertices) rank_of_[v] = r++;
}

/// Managed-runtime partition footprint: ~64 B per vertex object and ~8 B
/// per adjacency entry.
Bytes EngineCore::partition_graph_bytes(const std::vector<VertexId>& vertices) const {
  EdgeIndex arcs = 0;
  for (VertexId v : vertices) arcs += graph_->out_degree(v);
  return static_cast<Bytes>(vertices.size()) * 64 + arcs * 8;
}

void EngineCore::validate(const JobOptions& opts) const {
  opts.governor.validate();
  PREGEL_CHECK_MSG(!(opts.start_all_vertices && !opts.roots.empty()),
                   "JobOptions: start_all_vertices excludes explicit roots");
  if (!opts.roots.empty()) {
    PREGEL_CHECK_MSG(traits_.has_seed_message,
                     "JobOptions: program lacks seed_message but roots given");
    for (VertexId r : opts.roots)
      PREGEL_CHECK_MSG(r < graph_->num_vertices(), "JobOptions: root out of range");
    PREGEL_CHECK_MSG(opts.swath.sizer && opts.swath.initiation,
                     "JobOptions: swath policy incomplete");
  }
}

void EngineCore::reset_run_state(const JobOptions& opts) {
  // A previous run's migrations rewired the vertex->partition map; every
  // run starts from the pristine build-time assignment.
  if (parts_dirty_) {
    build_partitions(initial_assignment_);
    parts_dirty_ = false;
  }
  migrated_ = false;
  migration_possible_ = cluster_.migration.enabled() ||
                        (opts.governor.enabled && opts.governor.scale_out_enabled);
  opts_ = opts;
  ckpt_.configure(cluster_.ckpt, static_cast<std::uint32_t>(parts_.size()));
  track_dirty_ = cluster_.checkpoint_interval > 0 && cluster_.ckpt.delta_enabled;
  barriers_since_scrub_ = 0;
  failure_epoch_ = 0;
  superstep_ = 0;
  halt_requested_ = false;
  swath_ = SwathState{};
  swath_.pending_roots = opts.roots;
  outstanding_index_.clear();
  root_tombstones_ = 0;
  last_active_vertices_ = 0;
  workers_now_ = cluster_.initial_workers;
  workers_changed_ = false;
  executed_ = 0;
  scale_in_quiet_ = 0;
  scale_in_cooldown_ = 0;
  last_pull_mode_ = false;
  // Each run bills from zero: JobMetrics::cost_usd is this job's spend, not
  // a lifetime total for the engine (reuse would silently double-charge).
  meter_.reset();
  agg_cur_.clear();
  globals_ = Globals{};
  globals_next_ = Globals{};
  for (auto& ps : parts_) {
    ps.inbox_cur_bytes = ps.inbox_next_bytes = 0;
    ps.active_cur.clear();
    ps.active_next.clear();
    ps.in_active_next.clear();
    ps.wakes.clear();
    ps.state_bytes = 0;
    if (migration_possible_)
      ps.state_bytes_v.assign(ps.vertices.size(), 0);
    else
      ps.state_bytes_v.clear();
    ps.load = {};
    if (track_dirty_)
      ps.dirty.assign(ps.vertices.size(), 0);
    else
      ps.dirty.clear();
  }
  reset_placement_to_modulo();
  pending_placement_cost_ = 0.0;
  virtual_now_us_ = 0.0;
  recompute_baseline_memory();
  governor_.reset(opts.governor, opts.swath.memory_target);
  governor_breach_ = false;
  last_unspilled_peak_ = 0;
  last_post_spill_peak_ = 0;
  peak_spillable_since_initiation_ = 0;
  last_superstep_span_ = 0.0;

  faults_ = cloud::FaultInjector(cluster_.faults, cluster_.scheduled_failures);
  pending_retry_latency_ = 0.0;
  control_failed_vm_.reset();
  replay_lost_vms_.clear();
  confined_replay_until_ = 0;
  manager_ = cloud::JobManager{};
  queues_ = cloud::QueueService{};
  location_version_ = 0;
  zones_ = cloud::ZoneMap{std::max<std::uint32_t>(cluster_.availability_zones, 1)};
  // The manifest a standby would resume from if the primary died before
  // the first barrier: superstep 0, epoch 0, pristine aggregates.
  manager_.persist(current_manifest());
  outbox_log_cur_.assign(parts_.size() * parts_.size(), 0);
  vm_straggler_counts_.assign(workers_now_, 0);
  reset_partition_data();
}

/// Returns false when the job dies during setup (graph blob unreadable
/// past the retry budget).
bool EngineCore::simulate_setup() {
  trace::Span span("engine.setup", "engine");
  // Workers download the graph file from blob storage in parallel, load
  // their partitions, and the manager broadcasts the worker topology
  // (§III: "Workers report back ... so the manager can build a mapping").
  const auto read = control_op(cloud::FaultKind::kBlobRead);
  const Seconds download = cost_.transfer_time(graph_->memory_footprint(), cluster_.vm);
  const Seconds topology = 2.0 * cost_.params().queue_op_latency +
                           cost_.params().connection_setup_per_peer * (workers_now_ - 1);
  charge_stall(metrics().setup_time, download + topology + read.extra_latency);
  virtual_now_us_ = metrics().total_time * 1e6;
  if (trace::spans_on())
    trace::Tracer::instance().virtual_complete("setup (graph download + topology)",
                                               "modeled", 0, 0.0,
                                               metrics().setup_time * 1e6);
  if (!read.success) {
    report_->failed = true;
    report_->failure_reason = "graph blob unreadable after " +
                              std::to_string(read.attempts) + " attempts during setup";
    return false;
  }
  return true;
}

/// The manager's half of readying a superstep: swap the frontier in, merge
/// due wakes, order the actives for compute, and reset the per-superstep
/// counters. The template seals the inboxes when it runs the superstep.
void EngineCore::prepare_superstep() {
  for (auto& ps : parts_) {
    ps.inbox_cur_bytes = ps.inbox_next_bytes;
    ps.inbox_next_bytes = 0;
    ps.active_cur = std::move(ps.active_next);
    ps.active_next.clear();
    // The dedupe flags are still set for active_cur's members; reuse them
    // to merge this superstep's wakes in O(wakes). Ordering clears them.
    if (auto it = ps.wakes.find(superstep_); it != ps.wakes.end()) {
      for (std::uint32_t l : it->second)
        if (ps.in_active_next.insert(l)) ps.active_cur.push_back(l);
      ps.wakes.erase(it);
    }
    if (migrated_) {
      // After a migration, local index order no longer equals serial-visit
      // order; compute must walk actives in immutable-rank order so staged
      // emissions come out rank-sorted per outbox row.
      for (std::uint32_t l : ps.active_cur) ps.in_active_next.reset(l);
      std::sort(ps.active_cur.begin(), ps.active_cur.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return rank_of_[ps.vertices[a]] < rank_of_[ps.vertices[b]];
                });
    } else {
      // Local order is serial-visit order, and the flags mark exactly the
      // actives: listing the set flags in ascending order (and clearing
      // them) orders the frontier without a sort, in one word-scan of the
      // partition whatever its density.
      [[maybe_unused]] const std::size_t count = ps.active_cur.size();
      ps.active_cur.clear();
      ps.in_active_next.drain_ascending(ps.active_cur);
      PREGEL_DCHECK(ps.active_cur.size() == count);
    }
    ps.load = {};
    // Delta-checkpoint dirty tracking: a migration rebuilt the partition
    // under us -> everything is dirty until the forced re-base publishes.
    // Ordinary dirtying happens after each compute() in the template: the
    // vertex rides the next delta leg unless its program declared the call
    // a write-free no-op via ctx.state_unchanged().
    if (track_dirty_ && ps.dirty.size() != ps.vertices.size())
      ps.dirty.assign(ps.vertices.size(), 1);
  }
}

bool EngineCore::any_activity() const {
  // Pending future wakes keep the job alive even through idle supersteps
  // (e.g. the gap between a BC vertex's discovery and its successor
  // census).
  for (const auto& ps : parts_)
    if (!ps.active_cur.empty() || !ps.wakes.empty()) return true;
  return false;
}

/// Will the coming superstep do any work? Runs at the barrier, before
/// prepare_superstep swaps active_next in, so it inspects next-superstep
/// state where any_activity() inspects the current one. Future wakes count:
/// the engine idles through the gap on its own.
bool EngineCore::any_pending_activity() const {
  for (const PartitionMeta& ps : parts_)
    if (!ps.active_next.empty() || !ps.wakes.empty()) return true;
  return false;
}

SuperstepMetrics EngineCore::execute_superstep() {
  trace::Span span("engine.superstep", "superstep", "superstep", superstep_);
  agg_cur_.clear();
  SuperstepMetrics sm;
  run_superstep(sm);

  std::uint64_t active_total = 0;
  for (const PartitionMeta& ps : parts_) active_total += ps.active_cur.size();
  last_active_vertices_ = active_total;

  sm.superstep = superstep_;
  sm.active_workers = workers_now_;
  sm.active_vertices = active_total;
  sm.active_roots = outstanding_count();
  return sm;
}

// ---- modeled time ------------------------------------------------------------

void EngineCore::charge_stall(Seconds& category, Seconds t) {
  category += t;
  metrics().total_time += t;
  meter_.charge(cluster_.vm, workers_now_, t);
}

/// Compute per-VM loads and modeled times; returns true when a VM restart
/// terminated the job.
bool EngineCore::finalize_timing(SuperstepMetrics& sm) {
  JobMetrics& m = metrics();
  const std::uint32_t w = workers_now_;
  sm.workers.assign(w, {});

  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    const PartitionMeta& ps = parts_[p];
    WorkerLoad& L = sm.workers[vm_of(p)];
    L += ps.load;
    // Peak resident: partition graph + algorithm state + undrained inbox
    // snapshot + next-superstep buffers + serialized outgoing.
    L.memory_peak += partition_resident_bytes(ps) + ps.load.bytes_sent_remote;
  }

  Bytes unspilled_peak = 0;
  for (std::uint32_t i = 0; i < w; ++i)
    unspilled_peak = std::max(unspilled_peak, sm.workers[i].memory_peak);
  last_unspilled_peak_ = unspilled_peak;

  // Governor rung 2a: above the hard watermark, spill the coldest message
  // buffers to blob storage until the resident peak falls back to the soft
  // watermark (or the spillable bytes run out). The spilled bytes leave
  // the resident footprint before the restart check; the round-trip blob
  // I/O is charged to the worker's network time below.
  std::vector<Bytes> vm_spill;
  if (governor_.enabled()) {
    vm_spill.assign(w, 0);
    std::vector<Bytes> vm_spillable(w, 0);
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      const PartitionMeta& ps = parts_[p];
      vm_spillable[vm_of(p)] +=
          ps.inbox_cur_bytes + ps.inbox_next_bytes + ps.load.bytes_sent_remote;
    }
    // Track how much of the swath's peak superstep was spillable message
    // buffer: the sizers discount it from the footprint when spilling is
    // priced cheaper than shrinking the swath (spill-aware sizing).
    if (unspilled_peak >= swath_.peak_memory_since_initiation) {
      for (std::uint32_t i = 0; i < w; ++i) {
        if (sm.workers[i].memory_peak == unspilled_peak) {
          peak_spillable_since_initiation_ = vm_spillable[i];
          break;
        }
      }
    }
    for (std::uint32_t i = 0; i < w; ++i) {
      const Bytes spill = governor_.spill_amount(sm.workers[i].memory_peak, vm_spillable[i]);
      if (spill == 0) continue;
      vm_spill[i] = spill;
      sm.workers[i].memory_peak -= spill;
      ++m.governor_spills;
      m.governor_spill_bytes += spill;
    }
  }

  Bytes post_spill_peak = 0;
  Seconds slowest = 0.0;
  bool restart = false;
  const bool replaying = confined_replay_active();
  std::vector<Seconds> raw_compute(w), raw_network(w);
  std::vector<double> factors(w);
  for (std::uint32_t i = 0; i < w; ++i) {
    WorkerStepMetrics& wm = sm.workers[i];

    // Continuous multi-tenancy jitter times episodic straggler slowdowns.
    const double jitter = faults_.slowdown(i, superstep_);
    factors[i] = jitter;
    raw_compute[i] = cost_.compute_time(wm, cluster_.vm);
    raw_network[i] = cost_.network_time(wm, cluster_.vm, w - 1);
    if (replaying && !replay_lost(i)) {
      // Confined replay: healthy workers keep their state and only
      // re-deliver the logged outbox bytes addressed to lost partitions;
      // the load counters above still describe the logical superstep.
      WorkerLoad redeliver;
      redeliver.bytes_sent_remote = redelivery_bytes(i);
      wm.compute_time = 0.0;
      wm.network_time = cost_.network_time(redeliver, cluster_.vm, 1) * jitter;
    } else {
      wm.compute_time = raw_compute[i] * jitter;
      wm.network_time = raw_network[i] * jitter;
    }
    if (!vm_spill.empty() && vm_spill[i] > 0) {
      wm.spilled_bytes = vm_spill[i];
      const Seconds spill_t = cost_.spill_transfer_time(vm_spill[i], cluster_.vm);
      wm.network_time += spill_t;
      m.governor_spill_time += spill_t;
    }
    slowest = std::max(slowest, wm.busy_time());
    post_spill_peak = std::max(post_spill_peak, wm.memory_peak);

    if (cost_.triggers_restart(wm.memory_peak, cluster_.vm)) restart = true;
  }
  last_post_spill_peak_ = post_spill_peak;

  // Barrier straggler timeout: a worker running past k x the median busy
  // time is declared slow; the least-loaded VM speculatively re-executes
  // its partitions from the point of declaration (only applied when that
  // actually beats waiting the straggler out).
  if (cluster_.straggler_timeout_factor > 1.0 && w >= 3 && !replaying) {
    std::vector<Seconds> busy(w);
    std::uint32_t worst = 0;
    for (std::uint32_t i = 0; i < w; ++i) {
      busy[i] = sm.workers[i].busy_time();
      if (busy[i] > busy[worst]) worst = i;
    }
    std::uint32_t best = worst == 0 ? 1 : 0;
    for (std::uint32_t i = 0; i < w; ++i)
      if (i != worst && busy[i] < busy[best]) best = i;
    // True median (even counts average the two middle samples): the old
    // upper-median made the timeout threshold jump discontinuously between
    // odd and even worker counts.
    const Seconds median = median_of(busy);
    const Seconds timeout = cluster_.straggler_timeout_factor * median;
    if (median > 0.0 && busy[worst] > timeout) {
      const Seconds reexec_compute = raw_compute[worst] * factors[best];
      const Seconds reexec_network = raw_network[worst] * factors[best];
      Seconds others = 0.0;
      for (std::uint32_t i = 0; i < w; ++i)
        if (i != worst) others = std::max(others, busy[i]);
      const Seconds candidate = std::max(timeout + reexec_compute + reexec_network, others);
      if (candidate < busy[worst]) {
        // The straggler's attempt is abandoned at the timeout; its work
        // reruns on the healthiest VM, which gates the barrier instead.
        const double scale = timeout / busy[worst];
        sm.workers[worst].compute_time *= scale;
        sm.workers[worst].network_time *= scale;
        sm.workers[best].compute_time += reexec_compute;
        sm.workers[best].network_time += reexec_network;
        slowest = candidate;
        ++m.straggler_reexecutions;
        if (worst < vm_straggler_counts_.size()) ++vm_straggler_counts_[worst];
      }
    }
  }

  sm.barrier_overhead = cost_.barrier_time(w);
  Seconds span = slowest + sm.barrier_overhead;
  if (workers_changed_) {
    span += cluster_.scale_event_cost;
    workers_changed_ = false;
  }
  if (pending_placement_cost_ > 0.0) {
    span += pending_placement_cost_;
    pending_placement_cost_ = 0.0;
  }
  charge_stall(sm.span, span);
  for (auto& wm : sm.workers) wm.barrier_wait = sm.span - wm.busy_time();

  // Sizers see the pre-spill peak: spilling hides pressure from the
  // resident footprint, not from the controllers that must shrink it.
  // (Identical to sm.max_worker_memory() when the governor is off.)
  swath_.peak_memory_since_initiation =
      std::max(swath_.peak_memory_since_initiation, last_unspilled_peak_);
  swath_.last_messages_sent = sm.messages_sent_total();
  last_superstep_span_ = sm.span;
  m.work_steals += sm.steals;
  m.stolen_chunks += sm.stolen_chunks;
  if (sm.pull_mode) ++m.pull_supersteps;
  if (sm.pull_mode != last_pull_mode_) ++m.direction_switches;
  last_pull_mode_ = sm.pull_mode;
  trace_superstep(sm, m.total_time);

  if (restart) {
    if (governor_.enabled() && ckpt_.has_checkpoint()) {
      // Rung 3 trigger: the thrashed VM would be restarted by the fabric.
      // Flag the breach for the governor ladder at this barrier instead of
      // killing the job (fail_on_vm_restart is deliberately bypassed).
      governor_breach_ = true;
      return false;
    }
    Bytes worst = 0;
    std::uint32_t worst_vm = 0;
    for (std::uint32_t i = 0; i < w; ++i)
      if (sm.workers[i].memory_peak > worst) {
        worst = sm.workers[i].memory_peak;
        worst_vm = i;
      }
    if (opts_.fail_on_vm_restart) throw JobFailure(superstep_, worst_vm, worst, cluster_.vm.ram);
    report_->failed = true;
    report_->failure_reason = JobFailure(superstep_, worst_vm, worst, cluster_.vm.ram).what();
    return true;
  }
  return false;
}

/// Observability hook, called once per superstep after its modeled timing
/// is final. Draws the modeled cluster on the virtual trace tracks: one busy
/// span and one barrier-wait span per worker VM in simulated time (the
/// paper's Figures 9/12 view), the busy span carrying the worker's modeled
/// kWorkerFields rows, plus one counter track per modeled kSuperstepFields
/// row. Host-only rows (steals) stay off the modeled cluster. Pure
/// observation — reads the finished metrics, writes only trace buffers, so
/// results are unchanged whether tracing is on or off.
void EngineCore::trace_superstep(const SuperstepMetrics& sm, Seconds total_time_after) {
  trace::Tracer& t = trace::Tracer::instance();
  virtual_now_us_ = total_time_after * 1e6;
  if (!t.spans_on()) return;
  const double end_us = total_time_after * 1e6;
  const double start_us = end_us - sm.span * 1e6;
  for (std::uint32_t w = 0; w < sm.workers.size(); ++w) {
    const WorkerStepMetrics& wm = sm.workers[w];
    t.name_virtual_track(w, "worker VM " + std::to_string(w));
    std::ostringstream args;
    JsonWriter j(args);
    j.begin_object();
    j.key("superstep").value(std::uint64_t{sm.superstep});
    for (const auto& f : kWorkerFields) {
      if (f.coverage != Coverage::modeled) continue;
      j.key(f.name);
      std::visit([&j](auto x) { j.value(x); }, f.read(wm, w));
    }
    j.end_object();
    const double busy_us = wm.busy_time() * 1e6;
    t.virtual_complete("compute+network", "modeled", w, start_us, busy_us, args.str());
    if (wm.barrier_wait > 0.0)
      t.virtual_complete("barrier wait", "modeled", w, start_us + busy_us,
                         wm.barrier_wait * 1e6);
  }
  for (const auto& f : kSuperstepFields) {
    if (f.coverage != Coverage::modeled) continue;
    std::visit(
        [&](auto x) {
          if constexpr (!std::is_same_v<decltype(x), std::string_view>)
            t.virtual_counter(std::string(f.name), start_us, static_cast<double>(x));
        },
        f.read(sm));
  }
}

// ---- placement and memory baselines -------------------------------------------

void EngineCore::reset_placement_to_modulo() {
  placement_.resize(parts_.size());
  for (std::uint32_t p = 0; p < placement_.size(); ++p) placement_[p] = p % workers_now_;
  ++location_version_;
}

/// Per-worker resident floor (the graph bytes of the partitions each VM
/// hosts) feeding the sizers' headroom math. Placement-sensitive: it must
/// be re-derived whenever the partition->VM mapping changes, or the sizers
/// extrapolate against a stale baseline.
void EngineCore::recompute_baseline_memory() {
  std::vector<Bytes> vm_graph_bytes(workers_now_, 0);
  for (std::uint32_t p = 0; p < parts_.size(); ++p)
    vm_graph_bytes[placement_[p]] += parts_[p].graph_bytes;
  baseline_memory_ = *std::max_element(vm_graph_bytes.begin(), vm_graph_bytes.end());
}

Bytes EngineCore::partition_resident_bytes(const PartitionMeta& ps) const {
  return ps.graph_bytes + static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes, 0)) +
         ps.inbox_cur_bytes + ps.inbox_next_bytes;
}

// ---- barrier -------------------------------------------------------------------

void EngineCore::run_barrier() {
  trace::Span span("engine.barrier", "superstep", "superstep", superstep_);
  // 1. Master compute (aggregates from this superstep -> globals for next).
  master_compute();
  globals_ = std::move(globals_next_);
  globals_next_ = Globals{};

  // 2. Swath scheduling.
  ++swath_.supersteps_since_initiation;
  maybe_initiate_swath(/*at_startup=*/false);
  report_->roots_completed = swath_.roots_completed;
  report_->swaths_initiated = swath_.swath_index;

  // 3. Elastic scaling decision for the next superstep.
  if (cluster_.scaling) apply_scaling_decision();

  // 4. Dynamic partition placement (overdecomposition rebalancing).
  if (cluster_.placement) apply_placement_policy();

  // 5. Periodic activity-aware vertex rebalancing (the live-migration
  // subsystem's steady-state trigger; scaling events trigger it above).
  if (cluster_.migration.enabled() && cluster_.migration.period > 0 &&
      (superstep_ + 1) % cluster_.migration.period == 0) {
    plan_and_migrate("periodic");
  }

  // 6. Frontier-collapse scale-in: retire an idle VM and return its
  // capacity (to the pool, under a scheduler; to the bill, solo).
  maybe_scale_in();
}

void EngineCore::apply_scaling_decision() {
  cloud::ScalingSignals sig;
  sig.superstep = superstep_;
  sig.active_vertices = last_active_vertices_;
  sig.total_vertices = graph_->num_vertices();
  sig.messages_sent = metrics().supersteps.back().messages_sent_total();
  sig.max_worker_memory = metrics().supersteps.back().max_worker_memory();
  sig.current_workers = workers_now_;
  const std::uint32_t decided =
      std::clamp<std::uint32_t>(cluster_.scaling->decide(sig), 1, cluster_.num_partitions);
  if (decided == workers_now_) return;
  if (trace::spans_on())
    trace::mark("scale.decision", "cloud", virtual_now_us_,
                "{\"superstep\":" + std::to_string(superstep_) +
                    ",\"from\":" + std::to_string(workers_now_) +
                    ",\"to\":" + std::to_string(decided) + "}");
  // New VM set: fall back to the default layout; the placement policy (if
  // any) refines it with fresh load data. With the migration subsystem
  // wired, the partition redistribution rides the modeled transfer planes
  // (every byte charged) instead of being folded into scale_event_cost, and
  // the planner may additionally rebalance vertices onto the new layout.
  resize_fleet(decided, cluster_.migration.enabled(), "scale");
}

void EngineCore::apply_placement_policy() {
  cloud::PlacementSignals sig;
  sig.superstep = superstep_;
  sig.workers = workers_now_;
  sig.placement = placement_;
  sig.vm_stragglers = vm_straggler_counts_;
  sig.zones = zones_.zones;
  if (zones_.zones > 1) {
    sig.vm_zone.resize(workers_now_);
    for (std::uint32_t v = 0; v < workers_now_; ++v) sig.vm_zone[v] = zones_.zone_of(v);
  }
  sig.partition_load.reserve(parts_.size());
  sig.partition_bytes.reserve(parts_.size());
  for (const auto& ps : parts_) {
    sig.partition_load.push_back(
        static_cast<double>(ps.load.messages_processed + ps.load.messages_sent_local +
                            ps.load.messages_sent_remote + ps.load.vertices_computed));
    sig.partition_bytes.push_back(partition_resident_bytes(ps));
  }
  std::vector<std::uint32_t> next = cluster_.placement->place(sig);
  PREGEL_CHECK_MSG(next.size() == parts_.size(), "PlacementPolicy returned wrong-sized placement");
  // Migration cost: each destination VM downloads the partitions that
  // move to it; transfers overlap, so the slowest VM bounds the stall.
  std::vector<Bytes> incoming(workers_now_, 0);
  bool moved = false;
  for (std::uint32_t p = 0; p < next.size(); ++p) {
    PREGEL_CHECK_MSG(next[p] < workers_now_, "PlacementPolicy target out of range");
    if (next[p] != placement_[p]) {
      moved = true;
      incoming[next[p]] += sig.partition_bytes[p];
    }
  }
  if (!moved) return;
  Bytes worst = 0;
  for (Bytes b : incoming) worst = std::max(worst, b);
  pending_placement_cost_ =
      cost_.transfer_time(worst, cluster_.vm) + cost_.params().queue_op_latency;
  placement_ = std::move(next);
  ++location_version_;
  recompute_baseline_memory();
}

void EngineCore::resize_fleet(std::uint32_t workers, bool charge_moves, const char* why) {
  const std::vector<std::uint32_t> old_placement = placement_;
  workers_now_ = workers;
  workers_changed_ = true;  // next superstep's span absorbs scale_event_cost
  // Straggler history is per-VM-identity and does not survive the
  // re-provisioning.
  reset_placement_to_modulo();
  vm_straggler_counts_.assign(workers_now_, 0);
  recompute_baseline_memory();
  if (charge_moves) charge_partition_redistribution(old_placement);
  if (cluster_.migration.enabled()) plan_and_migrate(why);
}

/// Scale-in rung: when the active frontier has stayed below the density
/// threshold for `patience` consecutive barriers — and no pending swath
/// roots could regrow it — retire one VM and re-home its partitions over
/// the modeled transfer planes. The trigger reads modeled job-own state
/// only, so a solo run and a scheduled run retire at the same barriers
/// (bit-identity), and a scheduler polling current_workers() between
/// slices reclaims the freed VM for queued jobs.
void EngineCore::maybe_scale_in() {
  const ScaleInOptions& si = cluster_.scale_in;
  if (!si.enabled) return;
  if (scale_in_cooldown_ > 0) --scale_in_cooldown_;
  const double density = graph_->num_vertices() == 0
                             ? 0.0
                             : static_cast<double>(last_active_vertices_) /
                                   static_cast<double>(graph_->num_vertices());
  const bool roots_pending = swath_.next_root < swath_.pending_roots.size();
  if (density >= si.density_threshold || roots_pending) {
    scale_in_quiet_ = 0;
    return;
  }
  ++scale_in_quiet_;
  if (scale_in_quiet_ < si.patience || scale_in_cooldown_ > 0) return;
  if (workers_now_ <= std::max<std::uint32_t>(si.min_workers, 1)) return;

  trace::Span span("engine.scale_in", "cloud", "superstep", superstep_);
  resize_fleet(workers_now_ - 1, /*charge_moves=*/true, "scale-in");
  ++metrics().scale_ins;
  scale_in_quiet_ = 0;
  scale_in_cooldown_ = si.cooldown;
  if (trace::spans_on())
    trace::mark("scale.in", "cloud", virtual_now_us_,
                "{\"superstep\":" + std::to_string(superstep_) +
                    ",\"workers\":" + std::to_string(workers_now_) + "}");
}

void EngineCore::maybe_initiate_swath(bool at_startup) {
  if (opts_.roots.empty() || swath_.next_root >= swath_.pending_roots.size()) return;

  if (!at_startup) {
    InitiationSignals sig;
    sig.superstep = superstep_;
    sig.supersteps_since_initiation = swath_.supersteps_since_initiation;
    sig.messages_sent = swath_.last_messages_sent;
    sig.active_roots = outstanding_count();
    sig.max_worker_memory = swath_.peak_memory_since_initiation;
    sig.memory_target = opts_.swath.memory_target;
    if (!opts_.swath.initiation->should_initiate(sig)) return;
    // Governor rung 1: while the observed pressure sits at or above the
    // soft watermark, initiations the policy would allow are vetoed. Only
    // defers while in-flight work can drain the pressure — with nothing
    // outstanding (or no coming activity) a veto would stall the job with
    // roots still pending.
    if (governor_.veto_initiation() && outstanding_count() > 0 && any_pending_activity()) {
      ++metrics().governor_vetoes;
      if (trace::spans_on())
        trace::mark("governor.veto", "governor", virtual_now_us_,
                    "{\"superstep\":" + std::to_string(superstep_) +
                        ",\"pressure\":" + std::to_string(governor_.last_pressure()) +
                        ",\"active_roots\":" + std::to_string(outstanding_count()) + "}");
      return;
    }
  }

  SwathSizeSignals ss;
  ss.swath_index = swath_.swath_index;
  ss.last_swath_size = swath_.last_swath_size;
  ss.peak_memory_last_swath = swath_.peak_memory_since_initiation;
  ss.baseline_memory = baseline_memory_;
  ss.memory_target = opts_.swath.memory_target;
  ss.roots_remaining =
      static_cast<std::uint32_t>(swath_.pending_roots.size() - swath_.next_root);
  // Spill-aware sizing: when the governor can spill message buffers and
  // the modeled round-trip is cheap next to a superstep, the sizers may
  // discount the spillable fraction of the peak instead of shrinking the
  // swath to fit it all in RAM.
  ss.peak_spillable_last_swath = peak_spillable_since_initiation_;
  ss.spill_relief_available =
      governor_.enabled() && opts_.governor.spill_enabled &&
      peak_spillable_since_initiation_ > 0 &&
      cost_.spill_transfer_time(peak_spillable_since_initiation_, cluster_.vm) <
          kSpillCheapFraction * last_superstep_span_;
  std::uint32_t size = opts_.swath.sizer->next_size(ss);
  if (governor_.enabled()) {
    // Rung 1b: clamp the sizer's proposal to the governed headroom (and to
    // the halved cap after any governed-OOM episode).
    const std::uint32_t clamped = governor_.clamp_swath_size(size);
    if (clamped < size) {
      ++metrics().governor_swath_clamps;
      if (trace::spans_on())
        trace::mark("governor.clamp", "governor", virtual_now_us_,
                    "{\"superstep\":" + std::to_string(superstep_) +
                        ",\"proposed\":" + std::to_string(size) +
                        ",\"clamped\":" + std::to_string(clamped) + "}");
      size = clamped;
    }
  }
  size = std::min<std::uint32_t>(std::max<std::uint32_t>(size, 1), ss.roots_remaining);

  for (std::uint32_t i = 0; i < size; ++i) {
    const VertexId root = swath_.pending_roots[swath_.next_root++];
    inject_seed(root);
    swath_.outstanding_roots.push_back(root);
    outstanding_index_.try_emplace(root, swath_.outstanding_roots.size() - 1);
  }
  ++swath_.swath_index;
  swath_.last_swath_size = size;
  if (trace::spans_on()) {
    // The initiation instant carries the heuristic's input vector, so a
    // trace shows *why* this swath launched, not just when.
    const SwathState& w = swath_;
    trace::mark("swath.initiate", "swath", virtual_now_us_,
                "{\"superstep\":" + std::to_string(superstep_) +
                    std::string(at_startup ? ",\"at_startup\":true" : ",\"at_startup\":false") +
                    ",\"swath_index\":" + std::to_string(w.swath_index - 1) +
                    ",\"size\":" + std::to_string(size) +
                    ",\"roots_remaining\":" +
                    std::to_string(w.pending_roots.size() - w.next_root) +
                    ",\"supersteps_since_initiation\":" +
                    std::to_string(w.supersteps_since_initiation) +
                    ",\"messages_last_superstep\":" + std::to_string(w.last_messages_sent) +
                    ",\"peak_memory_last_swath\":" +
                    std::to_string(w.peak_memory_since_initiation) +
                    ",\"baseline_memory\":" + std::to_string(baseline_memory_) +
                    ",\"memory_target\":" + std::to_string(opts_.swath.memory_target) + "}");
  }
  swath_.supersteps_since_initiation = 0;
  swath_.peak_memory_since_initiation = 0;
  peak_spillable_since_initiation_ = 0;
  opts_.swath.initiation->on_initiated();
}

// ---- control plane (simulated Azure queues) -------------------------------------

/// Run one control-plane storage op under the retry policy and record it
/// in the job metrics. With all fault rates at zero this is free: no
/// draws, no latency, no metric changes.
cloud::RetryOutcome EngineCore::control_op(cloud::FaultKind kind) {
  JobMetrics& m = metrics();
  const auto out = faults_.attempt(kind, cluster_.retry, cost_.params().queue_op_latency);
  m.faults_injected += out.faults;
  if (out.success) m.faults_masked += out.faults;
  m.retries_attempted += out.attempts - 1;
  m.retry_latency += out.extra_latency;
  if (kind == cloud::FaultKind::kQueueOp)
    m.queue_corruptions += out.corruptions;
  else
    m.blob_corruptions += out.corruptions;
  return out;
}

/// Control op attributed to worker `vm`: masked latency extends this
/// superstep's barrier; an exhausted retry budget marks the worker dead
/// (detected at the barrier like any other failure). The simulated queue
/// state stays consistent either way.
void EngineCore::guarded_control_op(cloud::FaultKind kind, std::uint32_t vm) {
  const auto out = control_op(kind);
  pending_retry_latency_ += out.extra_latency;
  if (!out.success && !control_failed_vm_) control_failed_vm_ = vm;
}

/// Fold the superstep's accumulated retry latency into its span: every
/// worker sits at the barrier while the slow op backs off and retries.
void EngineCore::settle_control_latency(SuperstepMetrics& sm) {
  if (pending_retry_latency_ <= 0.0) return;
  sm.barrier_overhead += pending_retry_latency_;
  for (auto& wm : sm.workers) wm.barrier_wait += pending_retry_latency_;
  charge_stall(sm.span, pending_retry_latency_);
  pending_retry_latency_ = 0.0;
}

/// The manifest a standby manager resumes from: last completed superstep,
/// fencing epoch, location-table version, aggregator state (sorted so the
/// serialization is canonical).
cloud::ManagerManifest EngineCore::current_manifest() const {
  cloud::ManagerManifest m;
  m.superstep = superstep_;
  m.epoch = manager_.epoch();
  m.location_version = location_version_;
  m.ckpt_generation = ckpt_.newest_seq();
  m.aggregators.assign(globals_.items().begin(), globals_.items().end());
  std::sort(m.aggregators.begin(), m.aggregators.end());
  return m;
}

void EngineCore::control_superstep_begin() {
  trace::Span span("engine.control.step-queue", "cloud", "superstep", superstep_);
  // Persist the manifest before posting tokens: it captures exactly the
  // state this superstep runs under (post-master-compute aggregates, the
  // current location-table version, the current epoch), so a standby that
  // takes over at this superstep's barrier resumes bit-identically.
  manager_.persist(current_manifest());
  auto& step = queues_.queue("step");
  const std::uint64_t epoch = manager_.epoch();
  for (std::uint32_t w = 0; w < workers_now_; ++w) {
    guarded_control_op(cloud::FaultKind::kQueueOp, w);
    step.put(cloud::make_step_token(superstep_, epoch));
  }
  for (std::uint32_t w = 0; w < workers_now_; ++w) {
    guarded_control_op(cloud::FaultKind::kQueueOp, w);
    const auto token = step.get();
    PREGEL_DCHECK(token.has_value());
    PREGEL_CHECK_MSG(cloud::verify_queue_message(*token),
                     "step-queue message failed CRC32C verification");
    // The worker learns the fencing epoch from the token and echoes it in
    // its barrier check-in; a token from a dead manager's epoch would be
    // refused here.
    const auto parsed = cloud::parse_step_token(token->body);
    PREGEL_CHECK_MSG(parsed.has_value(), "malformed step token: '" + token->body + "'");
    PREGEL_DCHECK(parsed->superstep == superstep_ && parsed->epoch == epoch);
    guarded_control_op(cloud::FaultKind::kQueueOp, w);
    step.remove(token->id);
  }
}

/// The manager was preempted mid-superstep: the standby waits out the
/// lease, downloads and CRC-verifies the manifest (a blob read under the
/// retry policy), restores its state from it, and bumps the fencing epoch
/// for every subsequent superstep. The whole cluster sits at the barrier
/// for the duration, so the latency folds into barrier overhead via
/// pending_retry_latency_.
void EngineCore::manager_failover() {
  trace::Span span("engine.manager.failover", "recovery", "superstep", superstep_);
  manager_.preempt();
  const auto read = control_op(cloud::FaultKind::kBlobRead);
  Seconds t = cluster_.manager_lease_timeout + cluster_.manager_takeover_time + read.extra_latency;
  if (!read.success) t += cluster_.retry.op_deadline;
  const cloud::ManagerManifest manifest = manager_.failover();
  PREGEL_CHECK_MSG(manifest.superstep == superstep_,
                   "manager manifest superstep failed to round-trip");
  PREGEL_DCHECK(manifest.location_version == location_version_);
  // Resume the aggregator state from the manifest — by construction equal
  // to what the primary held, so results stay bit-identical; going through
  // the blob exercises the serialization for real.
  Globals restored;
  for (const auto& [key, value] : manifest.aggregators) restored.set(key, value);
  globals_ = restored;
  pending_retry_latency_ += t;
  ++metrics().manager_failovers;
  metrics().manager_failover_time += t;
}

void EngineCore::control_superstep_end(const SuperstepMetrics& sm) {
  trace::Span span("engine.control.barrier-queue", "cloud", "superstep", superstep_);
  auto& barrier = queues_.queue("barrier");
  // Check-ins carry sender identity and the fencing epoch the worker
  // learned from its step token; the drain below is idempotent against
  // redelivery and fences anything from an older epoch.
  const std::uint64_t barrier_epoch = manager_.epoch();
  for (std::uint32_t w = 0; w < sm.workers.size(); ++w) {
    guarded_control_op(cloud::FaultKind::kQueueOp, w);
    barrier.put(cloud::make_checkin(w, barrier_epoch, sm.workers[w].vertices_computed));
  }

  // The primary removes a check-in only after recording it, so a primary
  // preempted mid-drain leaves every message visible (or redelivered) for
  // the standby, which drains this barrier under the epoch the workers
  // used and fences only from the next superstep on.
  if (faults_.manager_preempted(superstep_, barrier_epoch)) manager_failover();

  const auto stats = cloud::drain_barrier(
      barrier, workers_now_, barrier_epoch,
      [&](std::uint32_t vm) { guarded_control_op(cloud::FaultKind::kQueueOp, vm); },
      [&]() { return faults_.next_duplicate(); });
  JobMetrics& m = metrics();
  m.barrier_duplicates += stats.duplicates;
  m.barrier_fenced += stats.fenced;
  // Ops beyond the W-message happy path (redelivered, fenced, malformed)
  // are extra serialized poll rounds the fixed barrier-time formula does
  // not cover; each costs its base queue latency at the barrier.
  const std::uint64_t extra_reads = stats.duplicates + stats.fenced + stats.malformed;
  if (extra_reads > 0)
    pending_retry_latency_ += static_cast<double>(extra_reads) * cost_.params().queue_op_latency;
  if (!stats.missing.empty()) {
    // A worker that never checked in: indistinguishable from a slow one
    // until the detection timeout lapses. Charge the wait and let the
    // failure path at the barrier handle the (first) dead worker.
    ++m.barrier_detection_timeouts;
    pending_retry_latency_ += cluster_.failure_detection_time;
    if (!control_failed_vm_) control_failed_vm_ = stats.missing.front();
  } else {
    PREGEL_DCHECK(stats.active_total == sm.active_vertices);
  }

  m.control_queue_ops = queues_.total_ops();
}

// ---- checkpoints ---------------------------------------------------------------

/// Deep-copy all recoverable state into a payload the checkpoint store
/// can hang off a generation.
std::shared_ptr<EngineCore::Snapshot> EngineCore::make_snapshot(std::uint64_t resume_superstep) {
  compact_outstanding_roots();  // snapshot a tombstone-free root list
  auto s = std::make_shared<Snapshot>();
  s->parts = parts_;
  s->data = snapshot_partition_data();
  s->superstep = resume_superstep;
  s->globals = globals_;
  s->swath = swath_;
  if (migration_possible_) {
    s->part_of = part_of_;
    s->local_of = local_of_;
    s->migrated = migrated_;
  }
  return s;
}

/// Full data-leg size of one partition: algorithm state + buffered
/// messages + per-vertex values (the graph itself stays in blob storage).
Bytes EngineCore::full_leg_bytes(std::uint32_t p) const {
  const PartitionMeta& ps = parts_[p];
  return static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes, 0)) + ps.inbox_cur_bytes +
         ps.inbox_next_bytes + static_cast<Bytes>(ps.vertices.size()) * traits_.value_bytes;
}

/// Delta data-leg size: only vertices dirtied since the last published
/// generation carry their value + state, and only the undelivered inbox
/// (inbox_next) rides along — the consumed inbox_cur is re-derived by
/// replay, which is where stationary-frontier algorithms like PageRank
/// get their reduction. Capped at the full leg (a delta is never worth
/// writing bigger than its base).
Bytes EngineCore::delta_leg_bytes(std::uint32_t p) const {
  const PartitionMeta& ps = parts_[p];
  if (ps.dirty.size() != ps.vertices.size()) return full_leg_bytes(p);
  std::uint64_t dirty_count = 0;
  for (const std::uint8_t f : ps.dirty) dirty_count += f;
  Bytes dirty_state = 0;
  if (!ps.state_bytes_v.empty()) {
    for (std::uint32_t l = 0; l < ps.dirty.size(); ++l)
      if (ps.dirty[l])
        dirty_state += static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes_v[l], 0));
  } else if (!ps.vertices.empty()) {
    // No per-vertex breakdown this run: prorate the partition total by the
    // dirty share (pure integer function of modeled state — deterministic).
    dirty_state = static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes, 0)) * dirty_count /
                  ps.vertices.size();
  }
  const Bytes d = dirty_state + dirty_count * traits_.value_bytes + ps.inbox_next_bytes;
  return std::min(d, full_leg_bytes(p));
}

/// Modeled size of one worker's full checkpoint: the full legs of the
/// partitions it hosts.
Bytes EngineCore::checkpoint_bytes(std::uint32_t vm) const {
  Bytes total = 0;
  for (std::uint32_t p = 0; p < parts_.size(); ++p)
    if (vm_of(p) == vm) total += full_leg_bytes(p);
  return total;
}

/// The largest worker checkpoint: what a cluster-wide reload waits for.
Bytes EngineCore::biggest_checkpoint_bytes() const {
  Bytes biggest = 0;
  for (std::uint32_t i = 0; i < workers_now_; ++i)
    biggest = std::max(biggest, checkpoint_bytes(i));
  return biggest;
}

EngineCore::UploadRound EngineCore::upload_round() {
  UploadRound round;
  for (std::uint32_t w = 0; w < workers_now_; ++w) {
    const auto up = control_op(cloud::FaultKind::kBlobWrite);
    round.extra_latency = std::max(round.extra_latency, up.extra_latency);
    round.success = round.success && up.success;
  }
  return round;
}

void EngineCore::maybe_checkpoint() {
  if (cluster_.checkpoint_interval == 0) return;
  if ((superstep_ + 1) % cluster_.checkpoint_interval != 0) return;
  trace::Span span("engine.checkpoint", "recovery", "superstep", superstep_);
  JobMetrics& m = metrics();

  // Workers upload in parallel; the slowest (including its blob-write
  // retries) bounds the barrier extension. A worker that exhausts its
  // retry budget abandons the round: the previous checkpoint stays in
  // force, and only the wasted retry latency is charged.
  const UploadRound upload = upload_round();
  Seconds t = upload.extra_latency;
  if (upload.success) {
    // Stage this round's data legs (full base or dirty-sized delta) and
    // run the two-phase publish: legs, then the chain-hashed manifest.
    const bool base = ckpt_.next_is_base(location_version_);
    std::vector<Bytes> leg_bytes(parts_.size());
    std::vector<std::uint32_t> home_vm(parts_.size()), home_zone(parts_.size());
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      leg_bytes[p] = base ? full_leg_bytes(p) : delta_leg_bytes(p);
      home_vm[p] = vm_of(p);
      home_zone[p] = zones_.zone_of(vm_of(p));
    }
    const cloud::CkptWriteOutcome out = ckpt_.write_generation(
        superstep_ + 1, location_version_, leg_bytes, home_vm, home_zone, zones_.zones, faults_);
    m.checkpoint_torn_legs += out.torn_legs;

    // The slowest worker's leg uploads bound the barrier extension; the
    // manifest publish is one more control op. Legs transfer whether or
    // not the manifest lands — a torn manifest wastes the round's bytes.
    Bytes biggest = 0;
    std::vector<Bytes> vm_bytes(workers_now_, 0);
    for (std::uint32_t p = 0; p < parts_.size(); ++p) vm_bytes[vm_of(p)] += leg_bytes[p];
    for (const Bytes b : vm_bytes) biggest = std::max(biggest, b);
    t += cost_.transfer_time(biggest, cluster_.vm) + cost_.params().queue_op_latency;

    if (out.published) {
      // Successful publish: the next delta is relative to *this* generation.
      // Cleared before the snapshot, so restored snapshots carry the cleared
      // flags — a replay re-dirties and re-publishes identical generations.
      for (auto& ps : parts_) std::fill(ps.dirty.begin(), ps.dirty.end(), 0);
      ckpt_.attach_payload(make_snapshot(superstep_ + 1));
      ++m.checkpoints_written;
      if (out.is_base) {
        ++m.checkpoint_bases;
        m.checkpoint_base_bytes += out.bytes_written;
      } else {
        ++m.checkpoint_deltas;
        m.checkpoint_delta_bytes += out.bytes_written;
      }
      // Retention GC rode along with the publish: price its blob deletes
      // as control ops folded into the checkpoint charge.
      if (out.gc_delete_ops > 0) {
        m.ckpt_gc_generations += out.gc_generations;
        m.ckpt_gc_delete_ops += out.gc_delete_ops;
        t += static_cast<double>(out.gc_delete_ops) * cost_.params().queue_op_latency;
      }
      if (cluster_.availability_zones > 1 && cluster_.replicate_checkpoints_across_zones) {
        // Cross-zone replica: each worker writes a second copy to a blob
        // homed in another zone, so a whole-zone outage cannot take a
        // checkpoint down with every VM that could restore it. The replica
        // upload is serialized after the primary ack, so the barrier pays
        // one more transfer of the biggest checkpoint (plus its retries).
        const UploadRound replica = upload_round();
        t += replica.extra_latency;
        if (replica.success && ckpt_.complete_replica_round(faults_)) {
          t += cost_.transfer_time(biggest, cluster_.vm);
          m.checkpoint_replicas_written += workers_now_;
        } else {
          // Replica round abandoned: the primary generation published
          // fine, so this is not a checkpoint failure — it only thins the
          // zone-outage safety margin.
          ++m.checkpoint_replica_failures;
        }
      }
    } else {
      // Torn manifest: the whole round is lost, the previous generation
      // stays newest, and the dirty sets keep accumulating toward it.
      ++m.checkpoint_failures;
      ++m.checkpoint_torn_manifests;
    }
  } else {
    ++m.checkpoint_failures;
  }
  if (t > 0.0) charge_stall(m.checkpoint_time, t);
}

/// Modeled background scrub between barriers: every scrub_period
/// barriers, re-verify all retained checkpoint copies and re-replicate
/// rotted or torn ones from a surviving copy, charging the repair
/// transfers in modeled time.
void EngineCore::maybe_scrub() {
  if (cluster_.ckpt.scrub_period == 0 || cluster_.checkpoint_interval == 0) return;
  if (++barriers_since_scrub_ < cluster_.ckpt.scrub_period) return;
  barriers_since_scrub_ = 0;
  const cloud::CkptScrubOutcome out = ckpt_.scrub(faults_);
  JobMetrics& m = metrics();
  ++m.scrub_passes;
  m.scrub_copies_verified += out.copies_verified;
  const std::uint32_t repairs = out.repairs + out.manifest_repairs;
  m.scrub_repairs += repairs;
  if (repairs == 0) return;
  charge_stall(m.scrub_time,
               cost_.transfer_time(out.repaired_bytes, cluster_.vm) +
                   static_cast<double>(repairs) * cost_.params().queue_op_latency);
}

// ---- failures and recovery -----------------------------------------------------

std::string EngineCore::failure_description(const FailureEvent& event) const {
  if (event.zone)
    return "availability zone " + std::to_string(*event.zone) + " outage (" +
           std::to_string(event.dead.size()) + " worker VMs)";
  return "worker VM " + std::to_string(event.dead.front()) + " failed";
}

/// All VMs lost at this barrier: a control op past its retry budget or a
/// worker death, then a correlated zone outage (every VM in the zone at
/// once). Forced and drawn faults alike come from the injector.
EngineCore::FailureEvent EngineCore::collect_failures() {
  FailureEvent event;
  if (control_failed_vm_) {
    event.dead.push_back(*control_failed_vm_);
    control_failed_vm_.reset();
  } else if (const auto vm = faults_.worker_death(superstep_, failure_epoch_, workers_now_)) {
    event.dead.push_back(*vm);
  }
  if (cluster_.availability_zones > 1)
    event.zone = faults_.zone_outage_at(superstep_, failure_epoch_, zones_.zones);
  if (event.zone) {
    // One domain per barrier is correlation enough.
    ++metrics().zone_outages;
    for (std::uint32_t vm : zones_.vms_in_zone(*event.zone, workers_now_))
      event.dead.push_back(vm);
  }
  std::sort(event.dead.begin(), event.dead.end());
  event.dead.erase(std::unique(event.dead.begin(), event.dead.end()), event.dead.end());
  return event;
}

/// Is `vm` one of the VMs a confined replay is recomputing?
bool EngineCore::replay_lost(std::uint32_t vm) const noexcept {
  return std::find(replay_lost_vms_.begin(), replay_lost_vms_.end(), vm) !=
         replay_lost_vms_.end();
}

/// Remote bytes partitions on `vm` sent to partitions on any lost VM this
/// superstep (the logged outbox a healthy worker re-delivers in replay).
Bytes EngineCore::redelivery_bytes(std::uint32_t vm) const {
  const std::size_t n = parts_.size();
  Bytes total = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (placement_[p] != vm) continue;
    for (std::size_t q = 0; q < n; ++q)
      if (replay_lost(placement_[q])) total += outbox_log_cur_[p * n + q];
  }
  return total;
}

void EngineCore::restore_snapshot_state(const Snapshot& s) {
  parts_ = s.parts;
  restore_partition_data(s.data.get());
  globals_ = s.globals;
  globals_next_ = Globals{};
  swath_ = s.swath;
  root_tombstones_ = 0;
  rebuild_root_index();
  superstep_ = s.superstep;
  if (!s.part_of.empty()) {
    // Rewind any vertex moves applied after the checkpoint: the location
    // tables must match the restored partition state exactly.
    part_of_ = s.part_of;
    local_of_ = s.local_of;
    migrated_ = s.migrated;
    parts_dirty_ = parts_dirty_ || s.migrated;
    ++location_version_;  // the location tables just changed under everyone
    recompute_baseline_memory();
  }
  peak_spillable_since_initiation_ = 0;
}

/// Satellite of every recovery path: one place answers for the zone-loss
/// gate, full rollback, and confined recovery alike.
EngineCore::RecoveryAssessment EngineCore::assess_recovery(const FailureEvent& event) {
  RecoveryAssessment a;
  if (!ckpt_.has_checkpoint()) {
    a.reason = "with no checkpoint to recover from";
    return a;
  }
  if (event.zone && cluster_.availability_zones > 1 &&
      !cluster_.replicate_checkpoints_across_zones) {
    // The lost zone took the checkpoint blobs homed in it down with the
    // VMs that wrote them: without cross-zone replicas there is nothing
    // left to restore from.
    a.reason = "lost its checkpoints: no cross-zone replicas configured";
    return a;
  }
  const std::optional<std::uint32_t> lost_zone =
      cluster_.availability_zones > 1 ? event.zone : std::nullopt;
  a.plan = ckpt_.plan_restore(lost_zone, faults_);
  if (!a.plan) {
    a.reason = "with no checkpoint to recover from";
    return a;
  }
  JobMetrics& m = metrics();
  m.checkpoint_corrupt_legs += a.plan->corrupt_legs;
  m.checkpoint_corrupt_manifests += a.plan->corrupt_manifests;
  m.checkpoint_replica_reads += a.plan->replica_reads;
  if (a.plan->fallback_depth > 0) {
    ++m.checkpoint_fallbacks;
    m.checkpoint_fallback_depth_max =
        std::max(m.checkpoint_fallback_depth_max, a.plan->fallback_depth);
  }
  return a;
}

/// Restore-transfer size for `vm` under `plan`: the restore set's leg
/// bytes for the partitions it hosts. A generation-0 (initial) plan has
/// no legs — the worker re-derives state from the graph blob, priced at
/// the full-checkpoint size.
Bytes EngineCore::plan_restore_bytes(const cloud::CkptRestorePlan& plan, std::uint32_t vm) const {
  if (plan.initial) return checkpoint_bytes(vm);
  Bytes total = 0;
  for (std::uint32_t p = 0; p < parts_.size(); ++p)
    if (vm_of(p) == vm && p < plan.partition_bytes.size()) total += plan.partition_bytes[p];
  return total;
}

Seconds EngineCore::restore_read_time(Seconds detection, Bytes bytes, Seconds handoff) {
  const auto read = control_op(cloud::FaultKind::kBlobRead);
  Seconds t = detection + cost_.transfer_time(bytes, cluster_.vm) + handoff + read.extra_latency;
  // Restore reads retry until they succeed; model anything beyond the
  // per-op budget as one extra deadline of stalling.
  if (!read.success) t += cluster_.retry.op_deadline;
  return t;
}

/// Rewind to `s`, the tail every rollback shares: count the supersteps to
/// re-execute, charge the already-drawn `stall` to `category`, and restore.
void EngineCore::rewind(const Snapshot& s, Seconds& category, Seconds stall) {
  metrics().replayed_supersteps += superstep_ + 1 - s.superstep;
  charge_stall(category, stall);
  restore_snapshot_state(s);
}

/// Worker-failure rollback to `plan`'s checkpoint. Full (the Pregel
/// recovery model): every worker downloads its share and every partition
/// recomputes. Confined: only the `dead` VMs' partitions reload and
/// recompute (one VM for a lone failure; a whole domain after a zone
/// outage). State restoration rewinds everything either way (the simulator
/// re-derives healthy partitions' identical state while replaying), but
/// confined replay supersteps are costed confined: healthy workers only
/// re-deliver logged outbox bytes. Downloads run in parallel, so the
/// largest one bounds the stall.
void EngineCore::recover_from_checkpoint(const cloud::CkptRestorePlan& plan,
                                         const std::vector<std::uint32_t>& dead, bool confined) {
  trace::Span span(confined ? "engine.recover.confined" : "engine.recover.full", "recovery",
                   confined ? "vms" : "superstep", confined ? dead.size() : superstep_);
  ++failure_epoch_;
  // A failure during an active confined replay falls back to the full
  // rollback: every partition reloads, so the replay-in-progress
  // bookkeeping is void. (A confined recovery starts with none active.)
  replay_lost_vms_.clear();

  // Detection (missed heartbeats), replacement VM, checkpoint download.
  Bytes biggest = 0;
  if (confined) {
    for (const std::uint32_t vm : dead) biggest = std::max(biggest, plan_restore_bytes(plan, vm));
  } else {
    for (std::uint32_t vm = 0; vm < workers_now_; ++vm)
      biggest = std::max(biggest, plan_restore_bytes(plan, vm));
  }
  const Seconds stall = restore_read_time(
      cluster_.failure_detection_time + cluster_.vm_reacquisition_time, biggest, 0.0);

  if (confined) {
    confined_replay_until_ = superstep_;
    replay_lost_vms_ = dead;
  }
  rewind(*static_cast<const Snapshot*>(plan.payload.get()), metrics().recovery_time, stall);
  ckpt_.truncate_after(plan.seq);  // the replay re-writes those rounds
  reinitiate_after_restore();
}

/// A restore to the governor's pre-initiation anchor leaves nothing in
/// flight; the replay must re-initiate immediately (now under the
/// governor's clamp and cap) or the run loop would see no activity and end
/// with roots still pending.
void EngineCore::reinitiate_after_restore() {
  if (opts_.start_all_vertices) return;
  if (outstanding_count() > 0 || any_pending_activity()) return;
  if (swath_.next_root >= swath_.pending_roots.size()) return;
  maybe_initiate_swath(/*at_startup=*/true);
}

// ---- memory-pressure governor (graceful degradation ladder) --------------------

/// Roots initiated since the snapshot and still in flight — exactly the
/// ones a shed can park, because rewinding to the snapshot un-initiates
/// them without touching any completed root's recorded result.
std::uint32_t EngineCore::parkable_root_count() const {
  const Snapshot* snap = newest_snapshot();
  if (!snap) return 0;
  std::uint32_t n = 0;
  for (std::size_t i = snap->swath.next_root; i < swath_.next_root; ++i)
    if (outstanding_index_.contains(swath_.pending_roots[i])) ++n;
  return n;
}

/// Barrier-time governor consultation: feed it this superstep's pressure
/// observation and apply the action it picks. Free when disabled.
EngineCore::GovernorVerdict EngineCore::governor_step() {
  if (!governor_.enabled()) return GovernorVerdict::kProceed;
  const bool breach = governor_breach_;
  governor_breach_ = false;
  MemGovernor::Observation obs;
  obs.unspilled_peak = last_unspilled_peak_;
  obs.post_spill_peak = last_post_spill_peak_;
  obs.baseline = baseline_memory_;
  obs.active_roots = outstanding_count();
  obs.parkable_roots = parkable_root_count();
  obs.restart_breach = breach;
  // Scale-out rung inputs: the governor only prefers growing the cluster
  // over a shed rewind when migration is wired, a spare VM slot exists,
  // and the modeled transfer is strictly cheaper than the rewind.
  obs.can_scale_out = migration_possible_ && workers_now_ < cluster_.num_partitions;
  if (obs.can_scale_out && opts_.governor.scale_out_enabled) {
    const std::uint64_t replayed =
        ckpt_.has_checkpoint() ? superstep_ + 1 - newest_snapshot()->superstep : 0;
    obs.shed_cost_estimate = cost_.transfer_time(biggest_checkpoint_bytes(), cluster_.vm) +
                             cost_.params().queue_op_latency +
                             static_cast<double>(replayed) * last_superstep_span_;
    Bytes moved = 0;
    const std::uint32_t grown = workers_now_ + 1;
    for (std::uint32_t p = 0; p < parts_.size(); ++p)
      if (placement_[p] != p % grown) moved += partition_resident_bytes(parts_[p]);
    obs.scale_out_cost_estimate = cluster_.scale_event_cost +
                                  cost_.transfer_time(moved, cluster_.vm) +
                                  cost_.params().queue_op_latency;
  }
  switch (governor_.observe(obs)) {
    case MemGovernor::Action::kNone:
      return GovernorVerdict::kProceed;
    case MemGovernor::Action::kShed:
      shed_newest_roots();
      return GovernorVerdict::kRewound;
    case MemGovernor::Action::kScaleOut:
      governor_scale_out();
      return GovernorVerdict::kProceed;
    case MemGovernor::Action::kEscalate:
      governed_oom_restore();
      return GovernorVerdict::kRewound;
    case MemGovernor::Action::kGiveUp:
      report_->failed = true;
      report_->failure_reason =
          "governed OOM: memory pressure persisted after " + std::to_string(governor_.sheds()) +
          " sheds and " + std::to_string(governor_.escalations()) +
          " governed restores at superstep " + std::to_string(superstep_);
      return GovernorVerdict::kFailed;
  }
  return GovernorVerdict::kProceed;
}

/// Rung 2b: rewind to the snapshot, but re-queue the newest in-flight
/// roots at the BACK of the pending list so the replay resumes with a
/// lighter swath; parked roots re-initiate in later swaths. A proactive
/// rollback the manager orders at the barrier: no failure detection or VM
/// reacquisition, just the checkpoint download under the retry policy.
void EngineCore::shed_newest_roots() {
  trace::Span span("engine.governor.shed", "recovery", "superstep", superstep_);
  const Snapshot& s = *newest_snapshot();
  std::vector<VertexId> parkable;
  for (std::size_t i = s.swath.next_root; i < swath_.next_root; ++i) {
    const VertexId r = swath_.pending_roots[i];
    if (outstanding_index_.contains(r)) parkable.push_back(r);
  }
  const std::uint32_t k = governor_.park_count(static_cast<std::uint32_t>(parkable.size()));
  PREGEL_DCHECK(k >= 1 && k <= parkable.size());
  const std::unordered_set<VertexId> parked(parkable.end() - k, parkable.end());

  rewind(s, metrics().governor_shed_time,
         restore_read_time(0.0, biggest_checkpoint_bytes(), cost_.params().queue_op_latency));
  // Park: move the shed roots behind every other pending root, preserving
  // relative order. The snapshot's own pending list is updated too — a
  // later failure rollback must not silently undo the parking.
  std::vector<VertexId>& pending = swath_.pending_roots;
  std::stable_partition(pending.begin() + static_cast<std::ptrdiff_t>(swath_.next_root),
                        pending.end(), [&](VertexId r) { return !parked.contains(r); });
  newest_snapshot_mut()->swath.pending_roots = pending;
  governor_.on_shed();
  ++metrics().governor_sheds;
  metrics().governor_roots_parked += k;
  if (trace::spans_on())
    trace::mark("governor.shed", "governor", virtual_now_us_,
                "{\"superstep\":" + std::to_string(superstep_) +
                    ",\"roots_parked\":" + std::to_string(k) +
                    ",\"resume_superstep\":" + std::to_string(s.superstep) + "}");
  reinitiate_after_restore();
}

/// Rung 3: governed-OOM episode. The pressure breached the restart
/// threshold and shedding is exhausted (or impossible): the thrashed VM is
/// restarted by the fabric, everyone reloads the checkpoint, and the
/// governor halves its swath-size cap so the replay cannot re-offend.
/// Recorded as an episode in the metrics, not a job failure.
void EngineCore::governed_oom_restore() {
  trace::Span span("engine.governor.escalate", "recovery", "superstep", superstep_);
  const Snapshot& s = *newest_snapshot();
  ++failure_epoch_;
  replay_lost_vms_.clear();
  const std::uint32_t offending = swath_.last_swath_size;
  rewind(s, metrics().recovery_time,
         restore_read_time(cluster_.failure_detection_time + cluster_.vm_reacquisition_time,
                           biggest_checkpoint_bytes(), 0.0));
  governor_.on_escalated(offending);
  ++metrics().governed_oom_episodes;
  if (trace::spans_on())
    trace::mark("governor.escalate", "governor", virtual_now_us_,
                "{\"superstep\":" + std::to_string(superstep_) +
                    ",\"offending_swath_size\":" + std::to_string(offending) +
                    ",\"new_swath_cap\":" + std::to_string(governor_.swath_cap()) +
                    ",\"resume_superstep\":" + std::to_string(s.superstep) + "}");
  reinitiate_after_restore();
}

/// Governor scale-out rung: grow the cluster by one VM and spread the
/// partitions over it — pressure relief without a checkpoint rewind.
/// Chosen by the governor only when the modeled transfer is strictly
/// cheaper than the shed it replaces.
void EngineCore::governor_scale_out() {
  trace::Span span("engine.governor.scale_out", "governor", "superstep", superstep_);
  resize_fleet(workers_now_ + 1, /*charge_moves=*/true, "governor-scale-out");
  governor_.on_scale_out();
  ++metrics().governor_scale_outs;
  if (trace::spans_on())
    trace::mark("governor.scale_out", "governor", virtual_now_us_,
                "{\"superstep\":" + std::to_string(superstep_) +
                    ",\"workers\":" + std::to_string(workers_now_) + "}");
}

// ---- live vertex migration (docs/ELASTICITY.md) --------------------------------

/// Max-over-mean imbalance of next-superstep active vertices across the
/// current VM set — the quantity activity-aware rebalancing minimizes and
/// `rebalance_gain` reports the reduction of.
double EngineCore::active_next_imbalance() const {
  if (workers_now_ <= 1) return 0.0;
  std::vector<std::uint64_t> counts(workers_now_, 0);
  std::uint64_t total = 0;
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    counts[vm_of(p)] += parts_[p].active_next.size();
    total += parts_[p].active_next.size();
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) / workers_now_;
  std::uint64_t mx = 0;
  for (const std::uint64_t c : counts) mx = std::max(mx, c);
  return static_cast<double>(mx) / mean;
}

/// Consult the installed planner with the coming superstep's activity and
/// apply whatever plan it returns. Runs at barriers only (periodic
/// trigger, scaling events, governor scale-out); `why` labels the trace.
void EngineCore::plan_and_migrate(const char* why) {
  if (!cluster_.migration.enabled()) return;
  RebalanceSignals sig;
  sig.graph = graph_;
  sig.part_of = &part_of_;
  sig.placement = &placement_;
  sig.workers = workers_now_;
  sig.superstep = superstep_;
  sig.location_version = location_version_;
  sig.active.resize(parts_.size());
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    const PartitionMeta& ps = parts_[p];
    auto& out = sig.active[p];
    out.reserve(ps.active_next.size());
    for (const std::uint32_t l : ps.active_next) out.push_back(ps.vertices[l]);
    std::sort(out.begin(), out.end());
  }
  const MigrationPlan plan = cluster_.migration.planner->plan(sig);
  if (plan.empty()) return;
  apply_migration_plan(plan, why);
}

cloud::MigrationOutcome EngineCore::execute_transfers(
    const std::vector<cloud::MigrationTransfer>& transfers) {
  cloud::MigrationExecutor exec(cost_, cluster_.vm, queues_,
                                [this](cloud::FaultKind k) { return control_op(k); });
  const cloud::MigrationOutcome out =
      exec.execute(std::span<const cloud::MigrationTransfer>(transfers), superstep_);
  // Migration stalls the barrier it runs at; charged immediately (not via
  // pending_placement_cost_) so per-superstep spans — the imbalance bench's
  // signal — stay clean of one-off transfer costs.
  if (out.stall > 0.0) charge_stall(metrics().migration_time, out.stall);
  return out;
}

/// Execute a migration plan: price every move, run the transfers through
/// the modeled queue/blob planes, and — if no leg exhausted its retry
/// budget — rebuild the affected partitions around the new membership.
/// Atomic abort: a failed transfer leaves every vertex where it was and
/// charges only the wasted retry latency. Results stay bit-identical
/// either way (see docs/ELASTICITY.md for the rank-order argument).
bool EngineCore::apply_migration_plan(const MigrationPlan& plan, const char* why) {
  trace::Span span("engine.migration", "migration", "superstep", superstep_);
  std::vector<VertexMoveCost> moves;
  moves.reserve(plan.moves.size());
  for (const VertexMove& mv : plan.moves) {
    PREGEL_CHECK_MSG(mv.vertex < graph_->num_vertices(), "migration plan names an unknown vertex");
    PREGEL_CHECK_MSG(part_of_[mv.vertex] == mv.from,
                     "migration plan is stale: vertex no longer in 'from'");
    PREGEL_CHECK_MSG(mv.to < parts_.size() && mv.to != mv.from,
                     "migration plan targets an invalid partition");
    const PartitionMeta& ps = parts_[mv.from];
    const std::uint32_t l = local_of_[mv.vertex];
    // What physically moves: the vertex object + adjacency (the managed-
    // runtime footprint build_partitions models), its value, its exact
    // modeled algorithm state, and any buffered inbox messages (below).
    Bytes b = 64 + static_cast<Bytes>(graph_->out_degree(mv.vertex)) * 8 + traits_.value_bytes;
    if (!ps.state_bytes_v.empty())
      b += static_cast<Bytes>(std::max<std::int64_t>(ps.state_bytes_v[l], 0));
    moves.push_back({mv.vertex, mv.from, mv.to, b});
  }
  // Buffered messages: one pass over each donor partition's arrival log.
  std::vector<std::vector<std::uint32_t>> move_of(parts_.size());
  for (std::uint32_t k = 0; k < moves.size(); ++k) {
    std::vector<std::uint32_t>& slot = move_of[moves[k].from];
    if (slot.empty())
      slot.assign(parts_[moves[k].from].vertices.size(), std::numeric_limits<std::uint32_t>::max());
    // A second move of one vertex would list it in both target partitions.
    PREGEL_CHECK_MSG(slot[local_of_[moves[k].v]] == std::numeric_limits<std::uint32_t>::max(),
                     "migration plan names a vertex twice");
    slot[local_of_[moves[k].v]] = k;
  }
  for (std::uint32_t p = 0; p < parts_.size(); ++p)
    if (!move_of[p].empty()) add_inbox_bytes(p, move_of[p], moves);

  // Cross-VM transfer manifest, summed per (donor, receiver) VM pair;
  // moves between partitions co-located on one VM are free.
  std::vector<cloud::MigrationTransfer> transfers;
  for (const VertexMoveCost& m : moves) {
    const std::uint32_t fv = vm_of(m.from), tv = vm_of(m.to);
    if (fv == tv) continue;
    auto it = std::find_if(transfers.begin(), transfers.end(),
                           [&](const auto& t) { return t.from_vm == fv && t.to_vm == tv; });
    if (it == transfers.end()) {
      transfers.push_back({fv, tv, m.bytes, 1});
    } else {
      it->bytes += m.bytes;
      ++it->vertices;
    }
  }

  const cloud::MigrationOutcome out = execute_transfers(transfers);
  if (out.aborted) return false;

  const double imbalance_before = active_next_imbalance();
  rebuild_partitions_for_moves(moves);
  const double imbalance_after = active_next_imbalance();

  migrated_ = true;
  parts_dirty_ = true;
  ++location_version_;
  recompute_baseline_memory();
  JobMetrics& m = metrics();
  ++m.migrations;
  m.migrated_vertices += plan.moves.size();
  m.migrated_bytes += out.bytes_moved;
  m.rebalance_gain += imbalance_before - imbalance_after;
  if (trace::spans_on())
    trace::mark("migration.apply", "migration", virtual_now_us_,
                "{\"superstep\":" + std::to_string(superstep_) + ",\"why\":\"" + why + "\"" +
                    ",\"vertices\":" + std::to_string(plan.moves.size()) +
                    ",\"bytes\":" + std::to_string(out.bytes_moved) + "}");
  return true;
}

/// Rebuild the metadata of every partition a move touches around its new
/// membership. Each vertex carries its modeled state bytes, pending
/// activation, and scheduled wakes; partition vertex lists stay ascending
/// by global id and part_of_/local_of_ are updated. The template then
/// moves values and buffered messages (move_partition_data).
void EngineCore::rebuild_partitions_for_moves(const std::vector<VertexMoveCost>& moves) {
  std::unordered_map<VertexId, PartitionId> dest;
  std::vector<PartitionId> affected;
  for (const auto& m : moves) {
    dest[m.v] = m.to;
    affected.push_back(m.from);
    affected.push_back(m.to);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

  std::unordered_map<PartitionId, PartitionMeta> old;
  for (const PartitionId p : affected) old[p] = std::move(parts_[p]);

  // New membership per affected partition (ascending by global id).
  for (const PartitionId p : affected) {
    std::vector<VertexId> nv;
    nv.reserve(old[p].vertices.size());
    for (const VertexId v : old[p].vertices) {
      const auto it = dest.find(v);
      if (it == dest.end() || it->second == p) nv.push_back(v);
    }
    for (const auto& m : moves)
      if (m.to == p) nv.push_back(m.v);
    std::sort(nv.begin(), nv.end());

    PartitionMeta ns;
    const std::size_t pn = nv.size();
    ns.vertices = std::move(nv);
    ns.in_active_next.assign(pn);
    ns.state_bytes_v.assign(pn, 0);
    ns.graph_bytes = partition_graph_bytes(ns.vertices);
    parts_[p] = std::move(ns);
  }

  // Pull every vertex's state from wherever it lived before. part_of_ and
  // local_of_ still hold the OLD locations until the flip below.
  std::vector<std::vector<std::pair<PartitionId, std::uint32_t>>> source(affected.size());
  for (std::size_t i = 0; i < affected.size(); ++i) {
    PartitionMeta& ns = parts_[affected[i]];
    source[i].resize(ns.vertices.size());
    for (std::uint32_t nl = 0; nl < ns.vertices.size(); ++nl) {
      const VertexId v = ns.vertices[nl];
      const PartitionMeta& os = old.at(part_of_[v]);
      const std::uint32_t ol = local_of_[v];
      source[i][nl] = {part_of_[v], ol};
      if (!os.state_bytes_v.empty()) ns.state_bytes_v[nl] = os.state_bytes_v[ol];
      ns.state_bytes += ns.state_bytes_v[nl];
      if (os.in_active_next.test(ol)) {
        ns.in_active_next.insert(nl);
        ns.active_next.push_back(nl);
      }
    }
  }

  // Re-home scheduled wakes (locals are remapped; list order within a wake
  // step is irrelevant — prepare_superstep orders the merged actives).
  for (const PartitionId p : affected) {
    for (const auto& [at, locals] : old.at(p).wakes) {
      for (const std::uint32_t ol : locals) {
        const VertexId v = old.at(p).vertices[ol];
        const PartitionId np = dest.contains(v) ? dest.at(v) : p;
        PartitionMeta& ns = parts_[np];
        const auto it = std::lower_bound(ns.vertices.begin(), ns.vertices.end(), v);
        ns.wakes[at].push_back(static_cast<std::uint32_t>(it - ns.vertices.begin()));
      }
    }
  }

  // Flip the location tables to the new layout.
  for (const PartitionId p : affected) {
    const PartitionMeta& ns = parts_[p];
    for (std::uint32_t nl = 0; nl < ns.vertices.size(); ++nl) {
      part_of_[ns.vertices[nl]] = p;
      local_of_[ns.vertices[nl]] = nl;
    }
  }

  move_partition_data(affected, source, old);
}

/// Physically redistribute partitions after the VM set changed: every
/// partition whose placement moved rides the modeled transfer planes from
/// its old VM to its new one. Proceeds even if a leg aborts — the
/// placement tables already changed, so the cluster must converge; the
/// wasted retry latency is still charged.
void EngineCore::charge_partition_redistribution(const std::vector<std::uint32_t>& old_placement) {
  std::vector<cloud::MigrationTransfer> transfers;
  std::uint64_t vertices = 0;
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    if (p >= old_placement.size() || old_placement[p] == placement_[p]) continue;
    transfers.push_back({old_placement[p], placement_[p], partition_resident_bytes(parts_[p]),
                         static_cast<std::uint64_t>(parts_[p].vertices.size())});
    vertices += parts_[p].vertices.size();
  }
  if (transfers.empty()) return;
  const cloud::MigrationOutcome out = execute_transfers(transfers);
  if (!out.aborted) {
    JobMetrics& m = metrics();
    ++m.migrations;
    m.migrated_vertices += vertices;
    m.migrated_bytes += out.bytes_moved;
  }
}

// ---- roots -------------------------------------------------------------------------

void EngineCore::mark_root_done(VertexId root) {
  std::size_t pos;
  if (auto it = outstanding_index_.find(root); it != outstanding_index_.end()) {
    pos = it->second;
    outstanding_index_.erase(it);
  } else {
    // Not indexed: either never outstanding, or a duplicate initiation of
    // a root whose first occurrence was already completed. The original
    // linear-scan semantics (erase the earliest live occurrence) apply.
    auto lin = std::find(swath_.outstanding_roots.begin(), swath_.outstanding_roots.end(), root);
    if (lin == swath_.outstanding_roots.end()) return;
    pos = static_cast<std::size_t>(lin - swath_.outstanding_roots.begin());
  }
  swath_.outstanding_roots[pos] = kInvalidVertex;
  ++root_tombstones_;
  ++swath_.roots_completed;
  if (root_tombstones_ * 2 > swath_.outstanding_roots.size()) compact_outstanding_roots();
}

void EngineCore::compact_outstanding_roots() {
  if (root_tombstones_ == 0) return;
  std::erase(swath_.outstanding_roots, kInvalidVertex);
  root_tombstones_ = 0;
  rebuild_root_index();
}

/// try_emplace keeps the first occurrence of a duplicate root indexed,
/// matching what a linear scan would find.
void EngineCore::rebuild_root_index() {
  outstanding_index_.clear();
  for (std::size_t i = 0; i < swath_.outstanding_roots.size(); ++i)
    outstanding_index_.try_emplace(swath_.outstanding_roots[i], i);
}

}  // namespace pregel
