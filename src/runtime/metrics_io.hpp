// Metrics export: dump a JobMetrics record as CSV (one row per worker per
// superstep plus a summary row stream) so any run — bench, example, or user
// job — can be replotted outside the simulator.
#pragma once

#include <ostream>

#include "runtime/metrics.hpp"

namespace pregel {

// Column names, order and CSV groups come from the field tables in
// runtime/metric_fields.hpp; docs/OBSERVABILITY.md "Metric fields".

/// Per-superstep, per-worker long-format CSV: superstep, then kWorkerFields.
void write_worker_metrics_csv(const JobMetrics& metrics, std::ostream& out);

/// Per-superstep rollup CSV: kSuperstepFields.
void write_superstep_metrics_csv(const JobMetrics& metrics, std::ostream& out);

/// One-row rollup CSVs: the kJobFields rows in the fault, governor or
/// migration group.
void write_fault_metrics_csv(const JobMetrics& metrics, std::ostream& out);
void write_governor_metrics_csv(const JobMetrics& metrics, std::ostream& out);
void write_migration_metrics_csv(const JobMetrics& metrics, std::ostream& out);

/// One-line key=value job summary of every kJobFields row (human- and
/// grep-friendly).
void write_job_summary(const JobMetrics& metrics, std::ostream& out);

/// Per-job scheduling rows of one pool run (multi-job serving; src/sched/):
/// policy, then kJobRowFields.
void write_pool_metrics_csv(const PoolMetrics& pool, const std::vector<JobRow>& jobs,
                            std::ostream& out);

/// One-line key=value pool summary of every kPoolFields row,
/// jobs_per_hour_per_usd included.
void write_pool_summary(const PoolMetrics& pool, std::ostream& out);

}  // namespace pregel
