// Metrics record arithmetic, the field tables, and CSV export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/metric_fields.hpp"
#include "runtime/metrics.hpp"
#include "runtime/metrics_io.hpp"

namespace pregel {
namespace {

SuperstepMetrics make_superstep(std::uint64_t id) {
  SuperstepMetrics sm;
  sm.superstep = id;
  sm.active_workers = 2;
  sm.active_vertices = 10;
  WorkerStepMetrics a;
  a.vertices_computed = 6;
  a.messages_processed = 12;
  a.messages_sent_local = 3;
  a.messages_sent_remote = 9;
  a.bytes_sent_remote = 900;
  a.bytes_received_remote = 400;
  a.subgraph_ops = 21;
  a.memory_peak = 1000;
  a.compute_time = 2.0;
  a.network_time = 1.0;
  a.barrier_wait = 1.0;
  WorkerStepMetrics b;
  b.vertices_computed = 4;
  b.messages_processed = 8;
  b.messages_sent_local = 2;
  b.messages_sent_remote = 4;
  b.bytes_sent_remote = 400;
  b.bytes_received_remote = 900;
  b.memory_peak = 2000;
  b.compute_time = 1.0;
  b.network_time = 0.5;
  b.barrier_wait = 2.5;
  b.spilled_bytes = 64;
  sm.workers = {a, b};
  sm.span = 4.0;
  sm.barrier_overhead = 1.0;
  return sm;
}

TEST(SuperstepMetrics, Rollups) {
  const auto sm = make_superstep(0);
  EXPECT_EQ(sm.messages_sent_total(), 18u);
  EXPECT_EQ(sm.messages_sent_remote(), 13u);
  EXPECT_EQ(sm.max_worker_memory(), 2000u);
  // busy = 3 + 1.5 = 4.5; total = busy + wait = 4.5 + 3.5 = 8.
  EXPECT_NEAR(sm.utilization(), 4.5 / 8.0, 1e-12);
}

TEST(SuperstepMetrics, EmptyUtilizationIsOne) {
  SuperstepMetrics sm;
  EXPECT_DOUBLE_EQ(sm.utilization(), 1.0);
}

TEST(JobMetrics, Rollups) {
  JobMetrics m;
  m.supersteps = {make_superstep(0), make_superstep(1)};
  EXPECT_EQ(m.total_messages(), 36u);
  EXPECT_EQ(m.total_supersteps(), 2u);
  EXPECT_EQ(m.peak_worker_memory(), 2000u);
  EXPECT_NEAR(m.total_barrier_wait(), 7.0, 1e-12);
  EXPECT_NEAR(m.total_busy_time(), 9.0, 1e-12);
  EXPECT_NEAR(m.utilization(), 9.0 / 16.0, 1e-12);
}

TEST(MetricsIo, WorkerCsvShape) {
  JobMetrics m;
  m.supersteps = {make_superstep(0), make_superstep(1)};
  std::ostringstream out;
  write_worker_metrics_csv(m, out);
  const std::string s = out.str();
  // Header + 2 supersteps x 2 workers.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
  EXPECT_NE(s.find("superstep,worker,vertices_computed"), std::string::npos);
  EXPECT_NE(s.find("spilled_bytes"), std::string::npos);
  EXPECT_NE(s.find("0,0,6,12,3,9,900,400,21,1000,2,1,1,0"), std::string::npos);
  EXPECT_NE(s.find("0,1,4,8,2,4,400,900,0,2000,1,0.5,2.5,64"), std::string::npos);
}

TEST(MetricsIo, SuperstepCsvShape) {
  JobMetrics m;
  m.supersteps = {make_superstep(3)};
  std::ostringstream out;
  write_superstep_metrics_csv(m, out);
  const std::string s = out.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
  EXPECT_NE(s.find("3,2,10,0,18,13,4,1,2000,"), std::string::npos);
}

TEST(MetricsIo, JobSummaryKeyValues) {
  JobMetrics m;
  m.supersteps = {make_superstep(0)};
  m.total_time = 12.5;
  m.cost_usd = 0.42;
  m.worker_failures = 2;
  m.recovery_mode = "confined";
  m.confined_replay_time = 1.25;
  m.faults_injected = 7;
  m.faults_masked = 6;
  m.retries_attempted = 9;
  m.retry_latency = 0.5;
  m.straggler_reexecutions = 3;
  std::ostringstream out;
  write_job_summary(m, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("supersteps=1"), std::string::npos);
  EXPECT_NE(s.find("total_time_s=12.5"), std::string::npos);
  EXPECT_NE(s.find("failures=2"), std::string::npos);
  EXPECT_NE(s.find("recovery_mode=confined"), std::string::npos);
  EXPECT_NE(s.find("confined_replay_s=1.25"), std::string::npos);
  EXPECT_NE(s.find("faults_injected=7"), std::string::npos);
  EXPECT_NE(s.find("faults_masked=6"), std::string::npos);
  EXPECT_NE(s.find("retries_attempted=9"), std::string::npos);
  EXPECT_NE(s.find("retry_latency_s=0.5"), std::string::npos);
  EXPECT_NE(s.find("straggler_reexecutions=3"), std::string::npos);
}

TEST(MetricsIo, FaultCsvShape) {
  JobMetrics m;
  m.recovery_mode = "full-rollback";
  m.checkpoints_written = 4;
  m.checkpoint_failures = 1;
  m.worker_failures = 2;
  m.replayed_supersteps = 6;
  m.recovery_time = 3.5;
  m.faults_injected = 11;
  m.faults_masked = 11;
  m.retries_attempted = 13;
  m.straggler_reexecutions = 2;
  m.blob_corruptions = 3;
  m.checkpoint_time = 0.75;
  std::ostringstream out;
  write_fault_metrics_csv(m, out);
  const std::string s = out.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);  // header + one row
  EXPECT_NE(s.find("recovery_mode,checkpoints,checkpoint_failures"), std::string::npos);
  EXPECT_NE(s.find("blob_corruptions"), std::string::npos);
  EXPECT_NE(s.find("full-rollback,4,1,2,6,3.5,0,11,11,13,0,2,3"), std::string::npos);
  EXPECT_NE(s.find(",ckpt_gc_delete_ops,checkpoint_time_s\n"), std::string::npos);
  EXPECT_NE(s.find(",0.75\n"), std::string::npos);
}

TEST(MetricsIo, GovernorCsvShape) {
  JobMetrics m;
  m.governor_vetoes = 5;
  m.governor_swath_clamps = 4;
  m.governor_sheds = 2;
  m.governor_roots_parked = 9;
  m.governor_spills = 3;
  m.governor_spill_bytes = 4096;
  m.governor_spill_time = 0.25;
  m.governor_shed_time = 1.5;
  m.governed_oom_episodes = 1;
  std::ostringstream out;
  write_governor_metrics_csv(m, out);
  const std::string s = out.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);  // header + one row
  EXPECT_NE(s.find("governor_vetoes,governor_swath_clamps,governor_sheds,governor_roots_parked"),
            std::string::npos);
  EXPECT_NE(s.find("5,4,2,9,3,4096,0.25,1.5,1"), std::string::npos);
}

/// Field count of one CSV line, honoring quoted fields ("" escapes a quote).
std::size_t csv_field_count(const std::string& line) {
  std::size_t fields = 1;
  bool quoted = false;
  for (const char c : line) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++fields;
  }
  return fields;
}

/// Every row of a writer's output has exactly as many fields as its header:
/// a column missing from either would silently shift every later column.
void expect_rows_match_header(const std::string& csv, std::size_t min_rows) {
  std::istringstream in(csv);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const std::size_t columns = csv_field_count(header);
  EXPECT_GT(columns, 1u);
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line); ++rows)
    EXPECT_EQ(csv_field_count(line), columns) << "row " << rows << ": " << line;
  EXPECT_GE(rows, min_rows);
}

TEST(MetricsIo, EveryCsvRowMatchesItsHeader) {
  JobMetrics m;
  m.supersteps = {make_superstep(0), make_superstep(1)};
  m.recovery_mode = "confined";
  m.checkpoints_written = 3;
  m.governor_sheds = 1;
  m.migrations = 2;

  std::ostringstream worker, superstep, fault, governor, migration, pool_out;
  write_worker_metrics_csv(m, worker);
  expect_rows_match_header(worker.str(), 4);
  write_superstep_metrics_csv(m, superstep);
  expect_rows_match_header(superstep.str(), 2);
  write_fault_metrics_csv(m, fault);
  expect_rows_match_header(fault.str(), 1);
  write_governor_metrics_csv(m, governor);
  expect_rows_match_header(governor.str(), 1);
  write_migration_metrics_csv(m, migration);
  expect_rows_match_header(migration.str(), 1);

  PoolMetrics pool;
  pool.policy = "fair-share";
  JobRow done;
  done.id = 1;
  done.name = "pagerank, 8 VMs";  // quoted: its comma is not a separator
  done.user = "alice";
  done.state = "done";
  JobRow rejected = done;
  rejected.id = 2;
  rejected.state = "rejected";
  rejected.missed_deadline = true;
  write_pool_metrics_csv(pool, {done, rejected}, pool_out);
  expect_rows_match_header(pool_out.str(), 2);
}

TEST(MetricsIo, JobSummaryIncludesGovernorFields) {
  JobMetrics m;
  m.blob_corruptions = 2;
  m.governor_vetoes = 7;
  m.governor_sheds = 1;
  m.governor_roots_parked = 4;
  m.governor_spill_bytes = 512;
  m.governed_oom_episodes = 1;
  std::ostringstream out;
  write_job_summary(m, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("blob_corruptions=2"), std::string::npos);
  EXPECT_NE(s.find("governor_vetoes=7"), std::string::npos);
  EXPECT_NE(s.find("governor_sheds=1"), std::string::npos);
  EXPECT_NE(s.find("governor_roots_parked=4"), std::string::npos);
  EXPECT_NE(s.find("governor_spill_bytes=512"), std::string::npos);
  EXPECT_NE(s.find("governed_oom_episodes=1"), std::string::npos);
}

TEST(MetricsIo, JobSummaryPrintsEveryFieldOnce) {
  JobMetrics m;
  m.supersteps = {make_superstep(0)};
  std::ostringstream out;
  write_job_summary(m, out);
  std::map<std::string, int> keys;
  std::istringstream in(out.str());
  for (std::string token; in >> token;) ++keys[token.substr(0, token.find('='))];
  for (const auto& f : kJobFields) EXPECT_EQ(keys[std::string(f.name)], 1) << f.name;
  EXPECT_EQ(keys.size(), std::size(kJobFields));
  // The four job rollups are the only derived keys.
  EXPECT_EQ(std::ranges::count_if(kJobFields, [](const auto& f) { return !f.stored(); }), 4);
}

/// Changes one stored field: one ulp for doubles, +1 for integers, a flipped
/// bool, a different string. Derived columns are left alone.
template <class R>
void bump(R& r, const FieldRef<R>& ref) {
  std::visit(
      [&r]<class F>(const F& f) {
        if constexpr (std::is_member_object_pointer_v<F>) {
          auto& v = r.*f;
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, double>)
            v = std::nextafter(v, std::numeric_limits<double>::infinity());
          else if constexpr (std::is_same_v<T, std::string>)
            v += "-changed";
          else if constexpr (std::is_same_v<T, bool>)
            v = !v;
          else
            ++v;
        }
      },
      ref);
}

/// For every stored row of `table`: bump that field in a copy of `base`
/// (where `pick` locates the record) and require the comparator to name it —
/// or, for host-only fields, to report no difference.
template <class R, std::size_t N, class Pick>
void expect_each_field_checked(const MetricField<R> (&table)[N], const JobMetrics& base,
                               const std::string& path, Pick pick) {
  for (const auto& f : table) {
    if (!f.stored()) continue;
    JobMetrics changed = base;
    bump(pick(changed), f.ref);
    const std::string diff = first_modeled_difference(base, changed);
    if (f.coverage == Coverage::host_only)
      EXPECT_EQ(diff, "") << f.name;
    else
      EXPECT_EQ(diff.rfind(path + std::string(f.name) + ": ", 0), 0u) << f.name << " -> " << diff;
  }
}

TEST(MetricFields, ComparatorNamesEveryModeledField) {
  JobMetrics base;
  base.supersteps = {make_superstep(0), make_superstep(1)};
  base.total_time = 12.5;
  base.recovery_mode = "confined";
  EXPECT_EQ(first_modeled_difference(base, base), "");

  expect_each_field_checked(kJobFields, base, "", [](JobMetrics& m) -> JobMetrics& { return m; });
  expect_each_field_checked(kSuperstepFields, base, "supersteps[1].",
                            [](JobMetrics& m) -> SuperstepMetrics& { return m.supersteps[1]; });
  expect_each_field_checked(
      kWorkerFields, base, "supersteps[1].workers[1].",
      [](JobMetrics& m) -> WorkerStepMetrics& { return m.supersteps[1].workers[1]; });

  JobMetrics shorter = base;
  shorter.supersteps.pop_back();
  EXPECT_EQ(first_modeled_difference(base, shorter), "supersteps.size: 2 vs 1");
  JobMetrics narrower = base;
  narrower.supersteps[0].workers.pop_back();
  EXPECT_EQ(first_modeled_difference(base, narrower), "supersteps[0].workers.size: 2 vs 1");
  JobMetrics later = base;
  later.total_time = 12.75;
  EXPECT_EQ(first_modeled_difference(base, later), "total_time_s: 12.5 vs 12.75");
}

}  // namespace
}  // namespace pregel
