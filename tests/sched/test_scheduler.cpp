// Scheduler determinism and bit-identity tests (docs/SCHEDULER.md).
//
// The headline contract: every job admitted onto a contended pool — queued,
// preempted, resumed, scaled in — produces vertex values, modeled times, and
// JobMetrics bit-identical to running the same job alone on a dedicated
// pool. The scheduler may only change *when* slices run, never what they
// compute. These tests drive seeded multi-job plans through both queue
// policies at several pool widths and diff each job against its solo run.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "runtime/metrics_io.hpp"
#include "sched/scheduler.hpp"

namespace pregel {
namespace {

using algos::ComponentsProgram;
using algos::PageRankProgram;
using algos::SsspProgram;
using sched::FairSharePolicy;
using sched::JobScheduler;
using sched::JobSpec;
using sched::PriorityPolicy;
using sched::SchedulerOptions;
using sched::TypedJob;

// ---------------------------------------------------------------------------
// Shared fixtures: three graphs of different shapes and scales, partitioned
// once. Graphs must outlive the jobs (Engine holds references).

struct Corpus {
  Graph ws, ba, er;
  Partitioning ws_parts, ba_parts, er_parts;

  Corpus() {
    ws = watts_strogatz(400, 6, 0.1, 11);
    ba = barabasi_albert(300, 4, 22);
    er = erdos_renyi(500, 2000, 33);
    ws_parts = HashPartitioner{}.partition(ws, 8);
    ba_parts = HashPartitioner{}.partition(ba, 8);
    er_parts = HashPartitioner{}.partition(er, 8);
  }
};

const Corpus& corpus() {
  static const Corpus c;
  return c;
}

ClusterConfig small_cluster(std::uint32_t workers) {
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = workers;
  return c;
}

JobOptions pagerank_opts() {
  JobOptions o;
  o.start_all_vertices = true;
  return o;
}

JobOptions sssp_opts(VertexId root) {
  JobOptions o;
  o.roots = {root};
  return o;
}

JobOptions components_opts() {
  JobOptions o;
  o.start_all_vertices = true;
  return o;
}

// One mixed plan: heterogeneous algorithms, scales, users, arrivals.
// `lanes` is how many VMs each job asks for (the plan is replayed at
// several pool widths to vary contention).
struct PlanJob {
  std::string name;
  std::string user;
  std::uint32_t priority;
  Seconds arrival;
};

std::unique_ptr<sched::ScheduledJob> make_plan_job(std::size_t i, std::uint32_t lanes) {
  const Corpus& c = corpus();
  switch (i % 3) {
    case 0:
      return std::make_unique<TypedJob<PageRankProgram>>(
          c.ws, PageRankProgram{8, 0.85}, small_cluster(lanes), c.ws_parts,
          pagerank_opts());
    case 1:
      return std::make_unique<TypedJob<SsspProgram>>(
          c.ba, SsspProgram{}, small_cluster(lanes), c.ba_parts, sssp_opts(0));
    default:
      return std::make_unique<TypedJob<ComponentsProgram>>(
          c.er, ComponentsProgram{}, small_cluster(lanes), c.er_parts,
          components_opts());
  }
}

std::vector<PlanJob> mixed_plan(std::uint64_t seed) {
  // Tiny deterministic LCG: arrival jitter and user assignment per seed.
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&s]() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  };
  std::vector<PlanJob> plan;
  const char* users[] = {"alice", "bob", "carol"};
  for (std::size_t i = 0; i < 6; ++i) {
    PlanJob j;
    j.name = "job" + std::to_string(i);
    j.user = users[next() % 3];
    j.priority = static_cast<std::uint32_t>(next() % 4);
    j.arrival = static_cast<double>(next() % 50) * 0.25;
    plan.push_back(std::move(j));
  }
  return plan;
}

// Solo baselines for the three job shapes in make_plan_job, keyed by slot.
template <class Program>
JobResult<Program> solo_run(const Graph& g, Program p, std::uint32_t lanes,
                            const Partitioning& parts, JobOptions opts) {
  Engine<Program> engine(g, std::move(p), small_cluster(lanes), parts);
  return engine.run(opts);
}

void expect_job_matches_solo(const JobScheduler& scheduler, std::uint64_t id,
                             std::size_t slot, std::uint32_t lanes) {
  const Corpus& c = corpus();
  const JobReport& rep = scheduler.report(id);
  ASSERT_FALSE(rep.failed) << rep.failure_reason;
  switch (slot % 3) {
    case 0: {
      const auto solo = solo_run(c.ws, PageRankProgram{8, 0.85}, lanes, c.ws_parts,
                                 pagerank_opts());
      EXPECT_EQ(first_modeled_difference(rep.metrics, solo.metrics), "");
      break;
    }
    case 1: {
      const auto solo = solo_run(c.ba, SsspProgram{}, lanes, c.ba_parts, sssp_opts(0));
      EXPECT_EQ(first_modeled_difference(rep.metrics, solo.metrics), "");
      break;
    }
    default: {
      const auto solo = solo_run(c.er, ComponentsProgram{}, lanes, c.er_parts,
                                 components_opts());
      EXPECT_EQ(first_modeled_difference(rep.metrics, solo.metrics), "");
      break;
    }
  }
}

std::shared_ptr<sched::QueuePolicy> make_policy(bool priority) {
  if (priority) return std::make_shared<PriorityPolicy>();
  return std::make_shared<FairSharePolicy>();
}

// ---------------------------------------------------------------------------
// Engine re-entrancy: the sliced API is exactly run().

TEST(EngineReentrant, SlicedRunMatchesMonolithicRun) {
  const Corpus& c = corpus();
  const auto whole = solo_run(c.ws, PageRankProgram{8, 0.85}, 4, c.ws_parts,
                              pagerank_opts());

  Engine<PageRankProgram> engine(c.ws, {8, 0.85}, small_cluster(4), c.ws_parts);
  JobResult<PageRankProgram> sliced;
  ASSERT_TRUE(engine.start(pagerank_opts(), sliced));
  while (engine.advance(sliced) == Engine<PageRankProgram>::StepStatus::kRunning) {
  }
  engine.finish(sliced);

  ASSERT_EQ(sliced.values.size(), whole.values.size());
  for (std::size_t v = 0; v < whole.values.size(); ++v)
    ASSERT_EQ(std::memcmp(&sliced.values[v].rank, &whole.values[v].rank,
                          sizeof(double)),
              0)
        << "rank diverged at vertex " << v;
  EXPECT_EQ(first_modeled_difference(sliced.metrics, whole.metrics), "");
}

// ---------------------------------------------------------------------------
// Bit-identity under contention: seeded plans x policies x pool widths.

class SchedBitIdentity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, std::uint32_t>> {
};

TEST_P(SchedBitIdentity, EveryAdmittedJobMatchesSoloRun) {
  const auto [seed, priority, pool_vms] = GetParam();
  const std::uint32_t lanes = 4;
  const auto plan = mixed_plan(seed);

  SchedulerOptions opts;
  opts.pool_vms = pool_vms;
  opts.policy = make_policy(priority);
  JobScheduler scheduler(opts);

  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    JobSpec spec;
    spec.name = plan[i].name;
    spec.user = plan[i].user;
    spec.priority = plan[i].priority;
    spec.arrival = plan[i].arrival;
    ids.push_back(scheduler.submit(spec, make_plan_job(i, lanes)));
  }
  scheduler.run_all();

  EXPECT_EQ(scheduler.pool().jobs_completed, plan.size());
  EXPECT_EQ(scheduler.pool().jobs_failed, 0u);
  EXPECT_EQ(scheduler.pool().jobs_rejected, 0u);
  for (std::size_t i = 0; i < ids.size(); ++i)
    expect_job_matches_solo(scheduler, ids[i], i, lanes);

  EXPECT_GT(scheduler.pool().jobs_per_hour_per_usd, 0.0);
  EXPECT_GT(scheduler.pool().pool_utilization, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, SchedBitIdentity,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull),
                       ::testing::Bool(),          // fair-share / priority
                       ::testing::Values(4u, 8u)),  // one lane / two lanes
    [](const auto& p) {
      return "seed" + std::to_string(std::get<0>(p.param)) +
             (std::get<1>(p.param) ? "_priority" : "_fairshare") + "_pool" +
             std::to_string(std::get<2>(p.param));
    });

// The scheduling trail itself is deterministic: replaying the same plan
// yields the same event log, line for line.
TEST(SchedDeterminism, EventLogIsStable) {
  for (const bool priority : {false, true}) {
    std::vector<std::string> first;
    for (int rep = 0; rep < 2; ++rep) {
      const auto plan = mixed_plan(7);
      SchedulerOptions opts;
      opts.pool_vms = 8;
      opts.policy = make_policy(priority);
      JobScheduler scheduler(opts);
      for (std::size_t i = 0; i < plan.size(); ++i) {
        JobSpec spec;
        spec.name = plan[i].name;
        spec.user = plan[i].user;
        spec.priority = plan[i].priority;
        spec.arrival = plan[i].arrival;
        scheduler.submit(spec, make_plan_job(i, 4));
      }
      scheduler.run_all();
      if (rep == 0)
        first = scheduler.event_log();
      else
        EXPECT_EQ(first, scheduler.event_log());
    }
    EXPECT_FALSE(first.empty());
  }
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(SchedAdmission, RejectsJobsWiderThanPool) {
  const Corpus& c = corpus();
  SchedulerOptions opts;
  opts.pool_vms = 4;
  JobScheduler scheduler(opts);
  JobSpec spec;
  spec.name = "too-wide";
  const auto id = scheduler.submit(
      spec, std::make_unique<TypedJob<SsspProgram>>(
                c.ba, SsspProgram{}, small_cluster(8), c.ba_parts, sssp_opts(0)));
  (void)id;
  scheduler.run_all();
  EXPECT_EQ(scheduler.pool().jobs_rejected, 1u);
  EXPECT_EQ(scheduler.pool().jobs_completed, 0u);
  ASSERT_EQ(scheduler.rows().size(), 1u);
  EXPECT_EQ(scheduler.rows()[0].state, "rejected");
}

TEST(SchedAdmission, RejectsBudgetBelowFloor) {
  const Corpus& c = corpus();
  SchedulerOptions opts;
  opts.pool_vms = 8;
  JobScheduler scheduler(opts);
  JobSpec spec;
  spec.name = "pauper";
  spec.budget_usd = 1e-9;  // cannot buy 4 VMs one modeled minute
  scheduler.submit(spec, std::make_unique<TypedJob<SsspProgram>>(
                             c.ba, SsspProgram{}, small_cluster(4), c.ba_parts,
                             sssp_opts(0)));
  scheduler.run_all();
  EXPECT_EQ(scheduler.pool().jobs_rejected, 1u);
}

TEST(SchedAdmission, BudgetCeilingKillsRunningJob) {
  const Corpus& c = corpus();
  // Calibrate from a solo run: a budget above the admission floor (one
  // modeled second of the 4-VM fleet) but below the run's true cost must
  // admit the job and then kill it mid-flight.
  const auto solo = solo_run(c.ws, PageRankProgram{30, 0.85}, 4, c.ws_parts,
                             pagerank_opts());
  const Usd floor = 4.0 * cloud::azure_large_2012().price_per_hour / 3600.0;
  ASSERT_GT(solo.metrics.cost_usd, floor * 1.05)
      << "workload too cheap to exercise the mid-run budget kill";
  const Usd budget = floor + (solo.metrics.cost_usd - floor) / 2.0;

  SchedulerOptions opts;
  opts.pool_vms = 8;
  JobScheduler scheduler(opts);
  JobSpec spec;
  spec.name = "capped";
  spec.budget_usd = budget;
  const auto id = scheduler.submit(
      spec, std::make_unique<TypedJob<PageRankProgram>>(
                c.ws, PageRankProgram{30, 0.85}, small_cluster(4), c.ws_parts,
                pagerank_opts()));
  scheduler.run_all();
  EXPECT_EQ(scheduler.pool().jobs_failed, 1u);
  EXPECT_NE(scheduler.report(id).failure_reason.find("budget"), std::string::npos);
}

TEST(SchedAdmission, FairShareFavorsLeastServedUser) {
  // alice's first job runs alone and racks up service; when the pool frees,
  // bob's queued job must beat alice's second despite identical arrivals.
  const Corpus& c = corpus();
  SchedulerOptions opts;
  opts.pool_vms = 4;  // one lane: jobs run strictly one at a time
  opts.policy = std::make_shared<FairSharePolicy>();
  JobScheduler scheduler(opts);

  auto mk = [&]() {
    return std::make_unique<TypedJob<SsspProgram>>(
        c.ba, SsspProgram{}, small_cluster(4), c.ba_parts, sssp_opts(0));
  };
  JobSpec a1{.name = "alice-1", .user = "alice"};
  JobSpec a2{.name = "alice-2", .user = "alice", .arrival = 0.5};
  JobSpec b1{.name = "bob-1", .user = "bob", .arrival = 0.5};
  scheduler.submit(a1, mk());
  const auto id_a2 = scheduler.submit(a2, mk());
  const auto id_b1 = scheduler.submit(b1, mk());
  scheduler.run_all();

  ASSERT_EQ(scheduler.pool().jobs_completed, 3u);
  EXPECT_LT(scheduler.rows()[id_b1].admitted, scheduler.rows()[id_a2].admitted);
}

// ---------------------------------------------------------------------------
// Preemption: a higher-priority arrival evicts the running job, whose final
// results are still bit-identical to a solo run.

TEST(SchedPreemption, PriorityEvictsAndResumesBitIdentically) {
  const Corpus& c = corpus();
  SchedulerOptions opts;
  opts.pool_vms = 4;  // single lane forces the conflict
  opts.policy = std::make_shared<PriorityPolicy>();
  JobScheduler scheduler(opts);

  JobSpec low{.name = "low", .user = "alice", .priority = 0};
  // Arrives while `low` (a ~0.8s modeled run) is still mid-flight.
  JobSpec high{.name = "high", .user = "bob", .priority = 5, .arrival = 0.2};
  const auto id_low = scheduler.submit(
      low, std::make_unique<TypedJob<PageRankProgram>>(
               c.ws, PageRankProgram{8, 0.85}, small_cluster(4), c.ws_parts,
               pagerank_opts()));
  const auto id_high = scheduler.submit(
      high, std::make_unique<TypedJob<SsspProgram>>(
                c.ba, SsspProgram{}, small_cluster(4), c.ba_parts, sssp_opts(0)));
  scheduler.run_all();

  EXPECT_GE(scheduler.pool().preemptions, 1u);
  EXPECT_GE(scheduler.pool().resumes, 1u);
  EXPECT_GE(scheduler.rows()[id_low].preemptions, 1u);
  EXPECT_GT(scheduler.pool().preemption_overhead, 0.0);
  ASSERT_EQ(scheduler.pool().jobs_completed, 2u);
  // The high-priority job finishes before the preempted one resumes fully.
  EXPECT_LT(scheduler.rows()[id_high].completed, scheduler.rows()[id_low].completed);
  // The preempted job still matches its solo run exactly.
  expect_job_matches_solo(scheduler, id_low, 0, 4);
  expect_job_matches_solo(scheduler, id_high, 1, 4);
}

TEST(SchedPreemption, FairShareNeverPreempts) {
  const Corpus& c = corpus();
  SchedulerOptions opts;
  opts.pool_vms = 4;
  opts.policy = std::make_shared<FairSharePolicy>();
  JobScheduler scheduler(opts);
  JobSpec low{.name = "low", .user = "alice", .priority = 0};
  JobSpec high{.name = "high", .user = "bob", .priority = 9, .arrival = 0.2};
  auto mk = [&]() {
    return std::make_unique<TypedJob<SsspProgram>>(
        c.ba, SsspProgram{}, small_cluster(4), c.ba_parts, sssp_opts(0));
  };
  scheduler.submit(low, mk());
  scheduler.submit(high, mk());
  scheduler.run_all();
  EXPECT_EQ(scheduler.pool().preemptions, 0u);
  EXPECT_EQ(scheduler.pool().jobs_completed, 2u);
}

// ---------------------------------------------------------------------------
// Scale-in rung: a collapsing frontier retires idle VMs mid-job and the
// scheduler hands the capacity to the pool — without changing results.

Graph chain_graph(VertexId n) {
  GraphBuilder b(n, /*undirected=*/false);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return std::move(b).build();
}

TEST(SchedScaleIn, FrontierCollapseRetiresVmsWithoutChangingValues) {
  // A directed chain keeps SSSP's frontier at a single vertex: active
  // density is 1/n from the first superstep, so the rung fires as soon as
  // patience allows and keeps retiring VMs down to min_workers.
  const Graph chain = chain_graph(64);
  const auto parts = HashPartitioner{}.partition(chain, 8);

  ClusterConfig base = small_cluster(8);
  ClusterConfig elastic = base;
  elastic.scale_in.enabled = true;
  elastic.scale_in.density_threshold = 0.05;
  elastic.scale_in.patience = 2;
  elastic.scale_in.cooldown = 2;
  elastic.scale_in.min_workers = 2;

  Engine<SsspProgram> plain(chain, {}, base, parts);
  const auto baseline = plain.run(sssp_opts(0));
  ASSERT_FALSE(baseline.failed);

  Engine<SsspProgram> scaling(chain, {}, elastic, parts);
  const auto scaled = scaling.run(sssp_opts(0));
  ASSERT_FALSE(scaled.failed);

  EXPECT_GE(scaled.metrics.scale_ins, 1u);
  EXPECT_LT(scaling.current_workers(), 8u);
  EXPECT_GE(scaling.current_workers(), 2u);
  ASSERT_EQ(scaled.values.size(), baseline.values.size());
  for (std::size_t v = 0; v < baseline.values.size(); ++v)
    ASSERT_EQ(scaled.values[v].distance, baseline.values[v].distance)
        << "distance diverged at vertex " << v;

  // Same elastic run a second time is bit-identical (modeled-state trigger).
  Engine<SsspProgram> again(chain, {}, elastic, parts);
  const auto repeat = again.run(sssp_opts(0));
  EXPECT_EQ(first_modeled_difference(repeat.metrics, scaled.metrics), "");
}

TEST(SchedScaleIn, SchedulerReclaimsRetiredVms) {
  // Two chain-SSSP jobs on a 10-VM pool, each asking for 8: the second can
  // only start early because the first shrinks. Assert the pool saw the
  // reclaim and that both jobs still match their solo runs.
  const Graph chain = chain_graph(64);
  const auto parts = HashPartitioner{}.partition(chain, 8);
  ClusterConfig elastic = small_cluster(8);
  elastic.scale_in.enabled = true;
  elastic.scale_in.density_threshold = 0.05;
  elastic.scale_in.patience = 2;
  elastic.scale_in.cooldown = 2;
  elastic.scale_in.min_workers = 2;

  auto mk = [&]() {
    return std::make_unique<TypedJob<SsspProgram>>(chain, SsspProgram{}, elastic,
                                                   parts, sssp_opts(0));
  };
  SchedulerOptions opts;
  opts.pool_vms = 10;
  JobScheduler scheduler(opts);
  const auto id0 = scheduler.submit(JobSpec{.name = "chain-0"}, mk());
  const auto id1 = scheduler.submit(JobSpec{.name = "chain-1", .arrival = 0.1}, mk());
  scheduler.run_all();

  ASSERT_EQ(scheduler.pool().jobs_completed, 2u);
  EXPECT_GE(scheduler.pool().scale_ins, 1u);
  EXPECT_LT(scheduler.rows()[id0].workers_final, 8u);

  Engine<SsspProgram> solo(chain, {}, elastic, parts);
  const auto alone = solo.run(sssp_opts(0));
  for (const auto id : {id0, id1}) {
    const JobReport& rep = scheduler.report(id);
    ASSERT_FALSE(rep.failed) << rep.failure_reason;
    EXPECT_EQ(first_modeled_difference(rep.metrics, alone.metrics), "");
  }
}

// ---------------------------------------------------------------------------
// Deadline observability: advisory targets are recorded, never enforced.

TEST(SchedDeadlines, MissesAreCountedAndReportedInCsv) {
  const Corpus& c = corpus();
  SchedulerOptions opts;
  opts.pool_vms = 8;
  JobScheduler scheduler(opts);

  // An impossible deadline (before any slice can finish) and a generous one.
  JobSpec tight{.name = "tight", .deadline = 1e-9};
  JobSpec loose{.name = "loose", .deadline = 1e9};
  JobSpec none{.name = "none"};  // no target: can never count as missed
  const auto id_tight = scheduler.submit(
      tight, std::make_unique<TypedJob<SsspProgram>>(
                 c.ba, SsspProgram{}, small_cluster(4), c.ba_parts, sssp_opts(0)));
  const auto id_loose = scheduler.submit(
      loose, std::make_unique<TypedJob<SsspProgram>>(
                 c.ba, SsspProgram{}, small_cluster(4), c.ba_parts, sssp_opts(0)));
  const auto id_none = scheduler.submit(
      none, std::make_unique<TypedJob<SsspProgram>>(
                c.ba, SsspProgram{}, small_cluster(4), c.ba_parts, sssp_opts(0)));
  scheduler.run_all();

  ASSERT_EQ(scheduler.pool().jobs_completed, 3u);
  EXPECT_TRUE(scheduler.rows()[id_tight].missed_deadline);
  EXPECT_FALSE(scheduler.rows()[id_loose].missed_deadline);
  EXPECT_FALSE(scheduler.rows()[id_none].missed_deadline);
  EXPECT_EQ(scheduler.pool().deadline_misses, 1u);

  // A deadline never perturbs the job itself: observability, not policy.
  const auto solo = solo_run(c.ba, SsspProgram{}, 4, c.ba_parts, sssp_opts(0));
  EXPECT_EQ(first_modeled_difference(scheduler.report(id_tight).metrics, solo.metrics), "");

  // The pool CSV carries the deadline columns; summary carries the rollup.
  std::ostringstream csv;
  write_pool_metrics_csv(scheduler.pool(), scheduler.rows(), csv);
  EXPECT_NE(csv.str().find("deadline_s"), std::string::npos);
  EXPECT_NE(csv.str().find("missed_deadline"), std::string::npos);
  std::ostringstream summary;
  write_pool_summary(scheduler.pool(), summary);
  EXPECT_NE(summary.str().find("deadline_misses=1"), std::string::npos);
}

TEST(SchedDeadlines, FailedJobWithDeadlineCountsAsMiss) {
  const Corpus& c = corpus();
  SchedulerOptions opts;
  opts.pool_vms = 8;
  JobScheduler scheduler(opts);
  // Budget kill mid-run: the job fails, and its (generous) deadline still
  // counts as missed — a dead job cannot meet a completion target.
  const auto solo = solo_run(c.ws, PageRankProgram{30, 0.85}, 4, c.ws_parts,
                             pagerank_opts());
  JobSpec spec{.name = "doomed", .deadline = 1e9};
  spec.budget_usd = solo.metrics.cost_usd * 0.5;
  scheduler.submit(spec, std::make_unique<TypedJob<PageRankProgram>>(
                             c.ws, PageRankProgram{30, 0.85}, small_cluster(4),
                             c.ws_parts, pagerank_opts()));
  scheduler.run_all();
  ASSERT_EQ(scheduler.pool().jobs_completed, 0u);
  EXPECT_EQ(scheduler.pool().deadline_misses, 1u);
  EXPECT_TRUE(scheduler.rows()[0].missed_deadline);
}

}  // namespace
}  // namespace pregel
