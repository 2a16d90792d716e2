// One field table per metrics record: the single list every exporter and the
// bit-identity comparator walk (docs/OBSERVABILITY.md "Metric fields").
//
// Each stored field of a record appears in its table exactly once, with its
// export name (CSV column and summary key), the one-row CSV it belongs to (if
// any) and whether it is part of the bit-identity contract. Derived columns
// (rollups computed from stored fields) sit in the same table as read-only
// accessors. Table order is export order.
//
// Adding a field: declare it in runtime/metrics.hpp and add one row here.
// A struct member without a row fails the member-count static_asserts below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "runtime/metrics.hpp"

namespace pregel {

/// One exported value: integers (bools as 0/1), doubles, or text.
using MetricValue = std::variant<std::uint64_t, double, std::string_view>;

/// The one-row rollup CSV a JobMetrics field is exported to.
enum class CsvGroup : std::uint8_t { none, fault, governor, migration };

/// Whether a stored field is part of the bit-identity contract. Host-only
/// fields count wall-clock scheduling artifacts (work steals): two runs of the
/// same job may differ in them, and they never feed modeled times or costs.
enum class Coverage : std::uint8_t { modeled, host_only };

/// A derived column: the record's position in its parent list.
struct RowIndex {
  constexpr bool operator==(const RowIndex&) const = default;
};

/// Where a column's value comes from: a stored data member, a rollup accessor
/// over the record, or the record's index.
template <class R>
using FieldRef = std::variant<std::uint64_t R::*, std::uint32_t R::*, double R::*, bool R::*,
                              std::string R::*, MetricValue (*)(const R&), RowIndex>;

template <class R>
struct MetricField {
  std::string_view name;
  FieldRef<R> ref;
  CsvGroup group = CsvGroup::none;
  Coverage coverage = Coverage::modeled;

  /// True for data members (the five member-pointer alternatives come
  /// first); false for derived columns.
  constexpr bool stored() const noexcept { return ref.index() < 5; }

  /// The column's value in record `r`, found at `index` in its parent list.
  MetricValue read(const R& r, std::size_t index = 0) const {
    return std::visit(
        [&](const auto& f) -> MetricValue {
          using F = std::decay_t<decltype(f)>;
          if constexpr (std::is_same_v<F, RowIndex>)
            return std::uint64_t{index};
          else if constexpr (std::is_pointer_v<F>)
            return f(r);
          else if constexpr (std::is_same_v<F, std::string R::*>)
            return std::string_view(r.*f);
          else if constexpr (std::is_same_v<F, double R::*>)
            return r.*f;
          else
            return std::uint64_t{r.*f};
        },
        ref);
  }
};

inline constexpr MetricField<WorkerStepMetrics> kWorkerFields[] = {
    {"worker", RowIndex{}},
    {"vertices_computed", &WorkerStepMetrics::vertices_computed},
    {"messages_processed", &WorkerStepMetrics::messages_processed},
    {"messages_sent_local", &WorkerStepMetrics::messages_sent_local},
    {"messages_sent_remote", &WorkerStepMetrics::messages_sent_remote},
    {"bytes_sent_remote", &WorkerStepMetrics::bytes_sent_remote},
    {"bytes_received_remote", &WorkerStepMetrics::bytes_received_remote},
    {"subgraph_ops", &WorkerStepMetrics::subgraph_ops},
    {"memory_peak_bytes", &WorkerStepMetrics::memory_peak},
    {"compute_seconds", &WorkerStepMetrics::compute_time},
    {"network_seconds", &WorkerStepMetrics::network_time},
    {"barrier_wait_seconds", &WorkerStepMetrics::barrier_wait},
    {"spilled_bytes", &WorkerStepMetrics::spilled_bytes},
};

inline constexpr MetricField<SuperstepMetrics> kSuperstepFields[] = {
    {"superstep", &SuperstepMetrics::superstep},
    {"workers", &SuperstepMetrics::active_workers},
    {"active_vertices", &SuperstepMetrics::active_vertices},
    {"active_roots", &SuperstepMetrics::active_roots},
    {"messages", [](const SuperstepMetrics& s) -> MetricValue { return s.messages_sent_total(); }},
    {"remote_messages", [](const SuperstepMetrics& s) -> MetricValue { return s.messages_sent_remote(); }},
    {"span_seconds", &SuperstepMetrics::span},
    {"barrier_seconds", &SuperstepMetrics::barrier_overhead},
    {"max_worker_memory", [](const SuperstepMetrics& s) -> MetricValue { return s.max_worker_memory(); }},
    {"utilization", [](const SuperstepMetrics& s) -> MetricValue { return s.utilization(); }},
    {"pull_mode", &SuperstepMetrics::pull_mode},
    {"steals", &SuperstepMetrics::steals, CsvGroup::none, Coverage::host_only},
    {"stolen_chunks", &SuperstepMetrics::stolen_chunks, CsvGroup::none, Coverage::host_only},
};

inline constexpr MetricField<JobMetrics> kJobFields[] = {
    {"supersteps", [](const JobMetrics& m) -> MetricValue { return m.total_supersteps(); }},
    {"messages", [](const JobMetrics& m) -> MetricValue { return m.total_messages(); }},
    {"total_time_s", &JobMetrics::total_time},
    {"setup_time_s", &JobMetrics::setup_time},
    {"cost_usd", &JobMetrics::cost_usd},
    {"vm_seconds", &JobMetrics::vm_seconds},
    {"peak_worker_memory", [](const JobMetrics& m) -> MetricValue { return m.peak_worker_memory(); }},
    {"utilization", [](const JobMetrics& m) -> MetricValue { return m.utilization(); }},
    {"recovery_mode", &JobMetrics::recovery_mode, CsvGroup::fault},
    {"checkpoints", &JobMetrics::checkpoints_written, CsvGroup::fault},
    {"checkpoint_failures", &JobMetrics::checkpoint_failures, CsvGroup::fault},
    {"failures", &JobMetrics::worker_failures, CsvGroup::fault},
    {"replayed_supersteps", &JobMetrics::replayed_supersteps, CsvGroup::fault},
    {"recovery_s", &JobMetrics::recovery_time, CsvGroup::fault},
    {"confined_replay_s", &JobMetrics::confined_replay_time, CsvGroup::fault},
    {"faults_injected", &JobMetrics::faults_injected, CsvGroup::fault},
    {"faults_masked", &JobMetrics::faults_masked, CsvGroup::fault},
    {"retries_attempted", &JobMetrics::retries_attempted, CsvGroup::fault},
    {"retry_latency_s", &JobMetrics::retry_latency, CsvGroup::fault},
    {"straggler_reexecutions", &JobMetrics::straggler_reexecutions, CsvGroup::fault},
    {"blob_corruptions", &JobMetrics::blob_corruptions, CsvGroup::fault},
    {"queue_corruptions", &JobMetrics::queue_corruptions, CsvGroup::fault},
    {"manager_failovers", &JobMetrics::manager_failovers, CsvGroup::fault},
    {"manager_failover_s", &JobMetrics::manager_failover_time, CsvGroup::fault},
    {"barrier_duplicates", &JobMetrics::barrier_duplicates, CsvGroup::fault},
    {"barrier_fenced", &JobMetrics::barrier_fenced, CsvGroup::fault},
    {"barrier_detection_timeouts", &JobMetrics::barrier_detection_timeouts, CsvGroup::fault},
    {"zone_outages", &JobMetrics::zone_outages, CsvGroup::fault},
    {"checkpoint_replicas", &JobMetrics::checkpoint_replicas_written, CsvGroup::fault},
    {"checkpoint_replica_failures", &JobMetrics::checkpoint_replica_failures, CsvGroup::fault},
    {"checkpoint_bases", &JobMetrics::checkpoint_bases, CsvGroup::fault},
    {"checkpoint_deltas", &JobMetrics::checkpoint_deltas, CsvGroup::fault},
    {"checkpoint_base_bytes", &JobMetrics::checkpoint_base_bytes, CsvGroup::fault},
    {"checkpoint_delta_bytes", &JobMetrics::checkpoint_delta_bytes, CsvGroup::fault},
    {"checkpoint_torn_manifests", &JobMetrics::checkpoint_torn_manifests, CsvGroup::fault},
    {"checkpoint_torn_legs", &JobMetrics::checkpoint_torn_legs, CsvGroup::fault},
    {"checkpoint_fallbacks", &JobMetrics::checkpoint_fallbacks, CsvGroup::fault},
    {"checkpoint_fallback_depth_max", &JobMetrics::checkpoint_fallback_depth_max, CsvGroup::fault},
    {"checkpoint_corrupt_legs", &JobMetrics::checkpoint_corrupt_legs, CsvGroup::fault},
    {"checkpoint_corrupt_manifests", &JobMetrics::checkpoint_corrupt_manifests, CsvGroup::fault},
    {"checkpoint_replica_reads", &JobMetrics::checkpoint_replica_reads, CsvGroup::fault},
    {"scrub_passes", &JobMetrics::scrub_passes, CsvGroup::fault},
    {"scrub_copies_verified", &JobMetrics::scrub_copies_verified, CsvGroup::fault},
    {"scrub_repairs", &JobMetrics::scrub_repairs, CsvGroup::fault},
    {"scrub_time_s", &JobMetrics::scrub_time, CsvGroup::fault},
    {"ckpt_gc_generations", &JobMetrics::ckpt_gc_generations, CsvGroup::fault},
    {"ckpt_gc_delete_ops", &JobMetrics::ckpt_gc_delete_ops, CsvGroup::fault},
    {"checkpoint_time_s", &JobMetrics::checkpoint_time, CsvGroup::fault},
    {"control_queue_ops", &JobMetrics::control_queue_ops},
    {"governor_vetoes", &JobMetrics::governor_vetoes, CsvGroup::governor},
    {"governor_swath_clamps", &JobMetrics::governor_swath_clamps, CsvGroup::governor},
    {"governor_sheds", &JobMetrics::governor_sheds, CsvGroup::governor},
    {"governor_roots_parked", &JobMetrics::governor_roots_parked, CsvGroup::governor},
    {"governor_spills", &JobMetrics::governor_spills, CsvGroup::governor},
    {"governor_spill_bytes", &JobMetrics::governor_spill_bytes, CsvGroup::governor},
    {"governor_spill_time_s", &JobMetrics::governor_spill_time, CsvGroup::governor},
    {"governor_shed_time_s", &JobMetrics::governor_shed_time, CsvGroup::governor},
    {"governed_oom_episodes", &JobMetrics::governed_oom_episodes, CsvGroup::governor},
    {"governor_scale_outs", &JobMetrics::governor_scale_outs, CsvGroup::governor},
    {"migrations", &JobMetrics::migrations, CsvGroup::migration},
    {"migrated_vertices", &JobMetrics::migrated_vertices, CsvGroup::migration},
    {"migrated_bytes", &JobMetrics::migrated_bytes, CsvGroup::migration},
    {"migration_time_s", &JobMetrics::migration_time, CsvGroup::migration},
    {"rebalance_gain", &JobMetrics::rebalance_gain, CsvGroup::migration},
    {"scale_ins", &JobMetrics::scale_ins, CsvGroup::migration},
    {"work_steals", &JobMetrics::work_steals, CsvGroup::none, Coverage::host_only},
    {"stolen_chunks", &JobMetrics::stolen_chunks, CsvGroup::none, Coverage::host_only},
    {"pull_supersteps", &JobMetrics::pull_supersteps},
    {"direction_switches", &JobMetrics::direction_switches},
};

inline constexpr MetricField<JobRow> kJobRowFields[] = {
    {"job", &JobRow::id},
    {"name", &JobRow::name},
    {"user", &JobRow::user},
    {"state", &JobRow::state},
    {"arrival_s", &JobRow::arrival},
    {"admitted_s", &JobRow::admitted},
    {"completed_s", &JobRow::completed},
    {"wait_s", &JobRow::wait_time},
    {"run_s", &JobRow::run_time},
    {"cost_usd", &JobRow::cost_usd},
    {"workers_peak", &JobRow::workers_peak},
    {"workers_final", &JobRow::workers_final},
    {"preemptions", &JobRow::preemptions},
    {"scale_ins", &JobRow::scale_ins},
    {"supersteps", &JobRow::supersteps},
    {"deadline_s", &JobRow::deadline},
    {"missed_deadline", &JobRow::missed_deadline},
};

inline constexpr MetricField<PoolMetrics> kPoolFields[] = {
    {"policy", &PoolMetrics::policy},
    {"pool_vms", &PoolMetrics::pool_vms},
    {"submitted", &PoolMetrics::jobs_submitted},
    {"completed", &PoolMetrics::jobs_completed},
    {"failed", &PoolMetrics::jobs_failed},
    {"rejected", &PoolMetrics::jobs_rejected},
    {"deadline_misses", &PoolMetrics::deadline_misses},
    {"preemptions", &PoolMetrics::preemptions},
    {"resumes", &PoolMetrics::resumes},
    {"scale_ins", &PoolMetrics::scale_ins},
    {"makespan_s", &PoolMetrics::makespan},
    {"total_wait_s", &PoolMetrics::total_wait},
    {"total_cost_usd", &PoolMetrics::total_cost_usd},
    {"vm_seconds", &PoolMetrics::vm_seconds},
    {"preemption_overhead_s", &PoolMetrics::preemption_overhead},
    {"jobs_per_hour_per_usd", &PoolMetrics::jobs_per_hour_per_usd},
    {"pool_utilization", &PoolMetrics::pool_utilization},
};

// ---------------------------------------------------------------------------
// Member-count guard: aggregate-initialize each record with ever more
// convert-to-anything arguments; the largest count that compiles is its number
// of data members. The nested superstep/worker vectors are walked
// structurally by the exporters and the comparator, not exported as columns.

namespace metric_fields_detail {

struct AnyMember {
  template <class T>
  operator T() const;  // NOLINT: implicit by design; never defined
};

template <class R, class... Members>
consteval std::size_t member_count() {
  if constexpr (requires { R{Members{}..., AnyMember{}}; })
    return member_count<R, Members..., AnyMember>();
  else
    return sizeof...(Members);
}

/// Each row names a distinct column, each stored row a distinct member, and
/// the stored rows plus `nested_lists` (superstep/worker vectors) cover every
/// data member of R. Derived rows' accessors are not compared: equality of
/// function pointers is not a constant expression under -fsanitize=undefined.
template <class R, std::size_t N>
consteval bool one_row_per_member(const MetricField<R> (&table)[N], std::size_t nested_lists) {
  std::size_t stored = 0;
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < i; ++j)
      if (table[j].name == table[i].name || (table[i].stored() && table[j].ref == table[i].ref))
        return false;
    if (table[i].stored()) ++stored;
  }
  return stored + nested_lists == member_count<R>();
}

static_assert(one_row_per_member(kWorkerFields, 0), "each WorkerStepMetrics member needs one row");
static_assert(one_row_per_member(kSuperstepFields, 1), "each SuperstepMetrics member needs one row");
static_assert(one_row_per_member(kJobFields, 1), "each JobMetrics member needs one row");
static_assert(one_row_per_member(kJobRowFields, 0), "each JobRow member needs one row");
static_assert(one_row_per_member(kPoolFields, 0), "each PoolMetrics member needs one row");

}  // namespace metric_fields_detail
}  // namespace pregel
