// Subgraph mode under the full engine substrate (docs/SUBGRAPH.md): the
// per-partition compute unit rides the same barriers, so checkpointing
// (including delta chains driven by mark_changed), fault recovery, live
// migration — reactive and meta-graph-predictive — and the scheduler all
// apply unchanged, and none of them may alter results.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/meta_graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "sched/scheduler.hpp"
#include "subgraph/components.hpp"
#include "subgraph/pagerank.hpp"
#include "subgraph/sssp.hpp"
#include "support/determinism.hpp"

namespace pregel {
namespace {

using subgraph::ComponentsSubgraphProgram;
using subgraph::PageRankSubgraphProgram;
using subgraph::SsspSubgraphProgram;

// Delta checkpointing is on by default with an interval; the subgraph dirty
// contract (state_unchanged_all + mark_changed) feeds the same dirty bitmap
// the vertex path uses, so rollback must reproduce exact distances.
TEST(SubgraphEngine, CheckpointRecoveryReproducesSsspDistances) {
  const Graph g = watts_strogatz(400, 6, 0.2, 9);
  const ClusterConfig clean_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, clean_cfg.num_partitions);
  const auto clean = subgraph::run_sssp_subgraph(g, clean_cfg, parts, 0);
  ASSERT_FALSE(clean.failed);

  ClusterConfig faulty = clean_cfg;
  faulty.checkpoint_interval = 2;
  faulty.scheduled_failures = {{3, 1}};
  Engine<SsspSubgraphProgram> e(g, {}, faulty, parts);
  JobOptions o;
  o.roots = {0};
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.metrics.worker_failures, 1u);
  EXPECT_GT(r.metrics.checkpoints_written, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].distance, clean.values[v].distance) << "vertex " << v;
}

// PageRank's doubles are the sharpest probe: a rollback that replays the
// boundary exchange in a different order would shift low bits immediately.
TEST(SubgraphEngine, CheckpointRecoveryBitIdenticalPageRank) {
  const Graph g = barabasi_albert(300, 3, 5);
  const ClusterConfig clean_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, clean_cfg.num_partitions);
  const auto clean = subgraph::run_pagerank_subgraph(g, clean_cfg, parts, 25);
  ASSERT_FALSE(clean.failed);

  ClusterConfig faulty = clean_cfg;
  faulty.checkpoint_interval = 4;
  faulty.scheduled_failures = {{7, 0}, {15, 2}};
  Engine<PageRankSubgraphProgram> e(g, [] {
    PageRankSubgraphProgram p;
    p.iterations = 25;
    return p;
  }(), faulty, parts);
  JobOptions o;
  o.start_all_vertices = true;
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.metrics.worker_failures, 2u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].rank, clean.values[v].rank) << "vertex " << v;
}

ClusterConfig with_forced_migration(ClusterConfig c,
                                    std::shared_ptr<MigrationPlanner> planner,
                                    std::uint64_t period = 2) {
  c.migration.planner = std::move(planner);
  c.migration.period = period;
  return c;
}

// Migration changes WHERE partitions compute, never WHAT: after a re-base
// the inbox merge switches to the rank-ordered path, which the canonical
// (sender rank, emit seq) outbox sort makes identical to the unmigrated
// partition-major concatenation.
TEST(SubgraphEngine, ReactiveMigrationPreservesValues) {
  const Graph g = watts_strogatz(500, 6, 0.2, 43);
  const ClusterConfig base_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, base_cfg.num_partitions);
  const auto base = subgraph::run_components_subgraph(g, base_cfg, parts);
  ASSERT_FALSE(base.failed);

  const ClusterConfig migr_cfg = with_forced_migration(
      base_cfg, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05));
  Engine<ComponentsSubgraphProgram> e(g, {}, migr_cfg, parts);
  JobOptions o;
  o.start_all_vertices = true;
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_GT(r.metrics.migrated_vertices, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].label, base.values[v].label) << "vertex " << v;
}

// The meta-graph planner proposes moves *ahead* of the frontier wave; like
// every planner it must leave the logical execution untouched, and its
// cached meta-graph must have been (re)built along the way.
TEST(SubgraphEngine, MetaGraphPlannerPreservesValuesAndRebuilds) {
  const Graph g = grid_graph(20, 25);
  const ClusterConfig base_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, base_cfg.num_partitions);
  const auto base = subgraph::run_sssp_subgraph(g, base_cfg, parts, 0);
  ASSERT_FALSE(base.failed);

  auto planner = std::make_shared<MetaGraphPlanner>(/*tolerance=*/0.05);
  const ClusterConfig migr_cfg = with_forced_migration(base_cfg, planner);
  Engine<SsspSubgraphProgram> e(g, {}, migr_cfg, parts);
  JobOptions o;
  o.roots = {0};
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
  EXPECT_GE(planner->rebuilds(), 1u);
  EXPECT_EQ(planner->name(), "meta-graph");
}

// The vertex engine under the same predictive planner: meta-graph planning
// is not subgraph-only, it rides RebalanceSignals like any other planner.
TEST(SubgraphEngine, MetaGraphPlannerWorksOnVertexEngineToo) {
  const Graph g = watts_strogatz(400, 6, 0.2, 9);
  const ClusterConfig base_cfg = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, base_cfg.num_partitions);
  const auto base = algos::run_sssp(g, base_cfg, parts, 0);
  ASSERT_FALSE(base.failed);

  const ClusterConfig migr_cfg =
      with_forced_migration(base_cfg, std::make_shared<MetaGraphPlanner>(0.05));
  Engine<algos::SsspProgram> e(g, {}, migr_cfg, parts);
  JobOptions o;
  o.roots = {0};
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
}

// Floods each root's id through the graph. Every partition a root reaches
// contributes an aggregate tagged with the root vertex and declares the root
// done, so partitions reached in the same superstep log entries under the
// same (remote) rank. The aggregate sums are recorded at each barrier.
struct SharedRootFloodProgram {
  static constexpr bool kSubgraphModel = true;

  struct VertexValue {
    std::uint64_t seen = 0;  // one bit per root id mod 64
  };
  using MessageValue = VertexId;

  static Bytes message_payload_bytes(const MessageValue&) { return 4; }
  static MessageValue seed_message(VertexId root) { return root; }

  std::shared_ptr<std::vector<std::pair<std::uint64_t, double>>> sums =
      std::make_shared<std::vector<std::pair<std::uint64_t, double>>>();

  template <class Ctx>
  void compute_subgraph(Ctx& ctx) const {
    for (const std::uint32_t l : ctx.active_locals()) {
      const VertexId v = ctx.vertex_at(l);
      for (const VertexId root : ctx.messages(l)) {
        const std::uint64_t bit = std::uint64_t{1} << (root % 64);
        if (ctx.value(l).seen & bit) continue;
        ctx.value(l).seen |= bit;
        ctx.aggregate(root, root, 1.0 / (1.0 + v));
        ctx.mark_root_done(root);
        for (const VertexId u : ctx.out_neighbors(v)) ctx.send(v, u, root);
      }
    }
  }

  template <class MCtx>
  void master_compute(MCtx& master) const {
    std::vector<std::pair<std::uint64_t, double>> step(master.aggregates().items().begin(),
                                                       master.aggregates().items().end());
    std::sort(step.begin(), step.end());
    sums->insert(sums->end(), step.begin(), step.end());
  }
};

using FloodRun = std::pair<JobResult<SharedRootFloodProgram>,
                            std::vector<std::pair<std::uint64_t, double>>>;

void expect_same_flood(const FloodRun& got, const FloodRun& want, bool bit_exact) {
  ASSERT_FALSE(got.first.failed);
  EXPECT_EQ(got.first.metrics.supersteps.size(), want.first.metrics.supersteps.size());
  EXPECT_EQ(got.first.roots_completed, want.first.roots_completed);
  ASSERT_EQ(got.first.values.size(), want.first.values.size());
  for (std::size_t v = 0; v < got.first.values.size(); ++v)
    ASSERT_EQ(got.first.values[v].seen, want.first.values[v].seen) << "vertex " << v;
  ASSERT_EQ(got.second.size(), want.second.size());
  for (std::size_t i = 0; i < got.second.size(); ++i) {
    EXPECT_EQ(got.second[i].first, want.second[i].first) << "entry " << i;
    if (bit_exact)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.second[i].second),
                std::bit_cast<std::uint64_t>(want.second[i].second))
          << "entry " << i;
    else
      EXPECT_DOUBLE_EQ(got.second[i].second, want.second[i].second) << "entry " << i;
  }
}

// Two partitions finishing the same root in one superstep stage equal ranks
// in the aggregate and root-completion logs. The rank merge must drain the
// tie (lower partition first) rather than stall on it, at any lane count and
// after a migration. A tied tag names no emitter, so moving vertices between
// partitions may reorder the tied contributions: across a migration the sums
// agree to rounding; at a fixed placement history they are bit-identical.
TEST(SubgraphEngine, CrossPartitionRankTiesReplayIdentically) {
  const Graph g = watts_strogatz(400, 6, 0.2, 17);
  const ClusterConfig base_cfg = eight_partitions_four_vms();
  const ClusterConfig migr_cfg = with_forced_migration(
      base_cfg, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05), 1);
  const auto parts = HashPartitioner{}.partition(g, base_cfg.num_partitions);
  const auto run = [&](const ClusterConfig& cfg, std::uint32_t lanes) {
    SharedRootFloodProgram program;
    Engine<SharedRootFloodProgram> e(g, program, cfg, parts);
    JobOptions o;
    o.roots = {0, 57, 211};
    o.parallelism = lanes;
    auto r = e.run(o);
    return FloodRun(std::move(r), *program.sums);
  };
  const FloodRun base = run(base_cfg, 1);
  ASSERT_FALSE(base.first.failed);
  ASSERT_FALSE(base.second.empty());
  for (const auto& value : base.first.values) ASSERT_NE(value.seen, 0u);

  expect_same_flood(run(base_cfg, 4), base, /*bit_exact=*/true);
  const FloodRun migr = run(migr_cfg, 1);
  EXPECT_GT(migr.first.metrics.migrated_vertices, 0u);
  expect_same_flood(migr, base, /*bit_exact=*/false);
  expect_same_flood(run(migr_cfg, 4), migr, /*bit_exact=*/true);
}

// Subgraph jobs are ordinary ScheduledJobs: sliced onto a contended pool,
// they must produce the same values as a dedicated solo run.
TEST(SubgraphEngine, SchedulerSlicedRunMatchesSoloRun) {
  const Graph g = erdos_renyi(400, 900, 47);
  ClusterConfig c;
  c.num_partitions = 4;
  c.initial_workers = 2;
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto solo = subgraph::run_sssp_subgraph(g, c, parts, 0);
  ASSERT_FALSE(solo.failed);

  sched::SchedulerOptions so;
  so.pool_vms = 4;
  sched::JobScheduler scheduler(so);
  JobOptions o;
  o.roots = {0};
  auto job = std::make_unique<sched::TypedJob<SsspSubgraphProgram>>(
      g, SsspSubgraphProgram{}, c, parts, o);
  auto* typed = job.get();
  const auto id = scheduler.submit(sched::JobSpec{.name = "subgraph-sssp"},
                                   std::move(job));
  scheduler.run_all();
  ASSERT_FALSE(scheduler.report(id).failed);
  const auto& vals = typed->result().values;
  ASSERT_EQ(vals.size(), solo.values.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(vals[v].distance, solo.values[v].distance) << "vertex " << v;
}

}  // namespace
}  // namespace pregel
