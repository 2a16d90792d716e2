#include "runtime/metrics_io.hpp"

#include <string_view>
#include <variant>
#include <vector>

#include "runtime/metric_fields.hpp"
#include "util/csv.hpp"

namespace pregel {
namespace {

void put(CsvWriter& w, const MetricValue& v) {
  std::visit([&w](const auto& x) { w.field(x); }, v);
}

/// Header row: the parent record's key column (if any), then the table's
/// rows in `group`, in table order.
template <class R, std::size_t N>
void header(CsvWriter& w, const MetricField<R> (&table)[N], CsvGroup group,
            std::string_view key = {}) {
  std::vector<std::string_view> names;
  if (!key.empty()) names.push_back(key);
  for (const auto& f : table)
    if (f.group == group) names.push_back(f.name);
  w.header(names);
}

/// The rest of a data row: the table's rows in `group`, read from record `r`
/// at position `index` in its parent list.
template <class R, std::size_t N>
void row(CsvWriter& w, const MetricField<R> (&table)[N], CsvGroup group, const R& r,
         std::size_t index = 0) {
  for (const auto& f : table)
    if (f.group == group) put(w, f.read(r, index));
  w.end_row();
}

/// One-row rollup CSV of the JobMetrics fields in `group`.
void write_group_csv(const JobMetrics& metrics, CsvGroup group, std::ostream& out) {
  CsvWriter w(out);
  header(w, kJobFields, group);
  row(w, kJobFields, group, metrics);
}

/// One line of space-separated key=value pairs, every row of the table.
template <class R, std::size_t N>
void write_summary(const MetricField<R> (&table)[N], const R& r, std::ostream& out) {
  std::string_view sep;
  for (const auto& f : table) {
    out << sep << f.name << '=';
    std::visit([&out](const auto& x) { out << x; }, f.read(r));
    sep = " ";
  }
  out << '\n';
}

// Key columns that tie a child row to its parent record.
const auto& kStepKey = kSuperstepFields[0];  // superstep
const auto& kPoolKey = kPoolFields[0];       // policy
constexpr auto kAll = CsvGroup::none;        // every row of a per-record table

}  // namespace

void write_worker_metrics_csv(const JobMetrics& metrics, std::ostream& out) {
  CsvWriter w(out);
  header(w, kWorkerFields, kAll, kStepKey.name);
  for (const auto& sm : metrics.supersteps) {
    for (std::size_t i = 0; i < sm.workers.size(); ++i) {
      put(w, kStepKey.read(sm));
      row(w, kWorkerFields, kAll, sm.workers[i], i);
    }
  }
}

void write_superstep_metrics_csv(const JobMetrics& metrics, std::ostream& out) {
  CsvWriter w(out);
  header(w, kSuperstepFields, kAll);
  for (const auto& sm : metrics.supersteps) row(w, kSuperstepFields, kAll, sm);
}

void write_fault_metrics_csv(const JobMetrics& metrics, std::ostream& out) {
  write_group_csv(metrics, CsvGroup::fault, out);
}

void write_governor_metrics_csv(const JobMetrics& metrics, std::ostream& out) {
  write_group_csv(metrics, CsvGroup::governor, out);
}

void write_migration_metrics_csv(const JobMetrics& metrics, std::ostream& out) {
  write_group_csv(metrics, CsvGroup::migration, out);
}

void write_job_summary(const JobMetrics& metrics, std::ostream& out) {
  write_summary(kJobFields, metrics, out);
}

void write_pool_metrics_csv(const PoolMetrics& pool, const std::vector<JobRow>& jobs,
                            std::ostream& out) {
  CsvWriter w(out);
  header(w, kJobRowFields, kAll, kPoolKey.name);
  for (const auto& j : jobs) {
    put(w, kPoolKey.read(pool));
    row(w, kJobRowFields, kAll, j);
  }
}

void write_pool_summary(const PoolMetrics& pool, std::ostream& out) {
  write_summary(kPoolFields, pool, out);
}

}  // namespace pregel
