// Live vertex migration: correctness contract tests (docs/ELASTICITY.md).
//
// The subsystem's load-bearing promise is that migration changes WHERE
// vertices compute, never WHAT they compute: algorithm results, the
// superstep count, per-superstep active counts, and total message traffic
// are bit-identical to the unmigrated run at any parallelism. Per-worker
// splits and modeled times legitimately differ — that shift IS the
// rebalance — so those are asserted only between migrated runs at
// different lane counts, where full bit-identity must hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/bc.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "support/determinism.hpp"

namespace pregel {
namespace {

using algos::BcProgram;
using algos::PageRankProgram;
using algos::SsspProgram;

/// Grow to `to` workers once superstep `at` is reached.
class StepUpScaling final : public cloud::ScalingPolicy {
 public:
  StepUpScaling(std::uint64_t at, std::uint32_t to) : at_(at), to_(to) {}
  std::uint32_t decide(const cloud::ScalingSignals& s) override {
    return s.superstep >= at_ ? to_ : s.current_workers;
  }
  std::string name() const override { return "step-up"; }

 private:
  std::uint64_t at_;
  std::uint32_t to_;
};

/// Migration forced every other barrier — the adversarial schedule the
/// determinism argument must survive.
ClusterConfig with_forced_migration(ClusterConfig c,
                                    std::shared_ptr<MigrationPlanner> planner,
                                    std::uint64_t period = 2) {
  c.migration.planner = std::move(planner);
  c.migration.period = period;
  return c;
}

/// The migration-invariant slice of the metrics: logical execution shape,
/// not physical layout.
void expect_same_logical_execution(const JobMetrics& a, const JobMetrics& b) {
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size());
  EXPECT_EQ(a.total_messages(), b.total_messages());
  for (std::size_t s = 0; s < a.supersteps.size(); ++s) {
    EXPECT_EQ(a.supersteps[s].active_vertices, b.supersteps[s].active_vertices)
        << "superstep " << s;
    EXPECT_EQ(a.supersteps[s].active_roots, b.supersteps[s].active_roots)
        << "superstep " << s;
    EXPECT_EQ(a.supersteps[s].messages_sent_total(),
              b.supersteps[s].messages_sent_total())
        << "superstep " << s;
  }
}

TEST(Migration, SsspValuesBitIdenticalUnderForcedMigration) {
  const Graph g = barabasi_albert(600, 3, 71);
  const ClusterConfig plain = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);

  const auto base = algos::run_sssp(g, plain, parts, /*source=*/0);
  ASSERT_FALSE(base.failed);

  for (const bool greedy : {true, false}) {
    std::shared_ptr<MigrationPlanner> planner;
    if (greedy)
      planner = std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05);
    else
      planner = std::make_shared<EdgeCutRefinePlanner>();
    const ClusterConfig c = with_forced_migration(plain, planner);
    for (const std::uint32_t lanes : {1u, 4u}) {
      JobOptions o;
      o.roots = {0};
      o.parallelism = lanes;
      Engine<SsspProgram> e(g, {}, c, parts);
      const auto r = e.run(o);
      ASSERT_FALSE(r.failed);
      EXPECT_GT(r.metrics.migrations, 0u) << "planner never fired";
      EXPECT_GT(r.metrics.migrated_vertices, 0u);
      ASSERT_EQ(r.values.size(), base.values.size());
      for (std::size_t v = 0; v < r.values.size(); ++v)
        EXPECT_EQ(r.values[v].distance, base.values[v].distance)
            << "vertex " << v << ", " << lanes << " lanes, greedy=" << greedy;
      expect_same_logical_execution(r.metrics, base.metrics);
    }
  }
}

TEST(Migration, PageRankValuesBitIdenticalUnderForcedMigration) {
  const Graph g = erdos_renyi(500, 1500, 73);
  const ClusterConfig plain = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);

  JobOptions o;
  o.start_all_vertices = true;
  o.parallelism = 1;
  Engine<PageRankProgram> serial(g, {15, 0.85}, plain, parts);
  const auto base = serial.run(o);
  ASSERT_FALSE(base.failed);

  const ClusterConfig c = with_forced_migration(
      plain, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05), 3);
  for (const std::uint32_t lanes : {1u, 4u}) {
    o.parallelism = lanes;
    Engine<PageRankProgram> e(g, {15, 0.85}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.migrations, 0u);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].rank, base.values[v].rank)
          << "vertex " << v << ", " << lanes << " lanes";
    expect_same_logical_execution(r.metrics, base.metrics);
  }
}

// BC exercises every migration-sensitive path at once: swath seeds, double
// aggregates (replayed by rank), wake_at rescheduling across partitions,
// and root completions whose order feeds the swath scheduler.
TEST(Migration, BcSwathedBitIdenticalUnderForcedMigration) {
  const Graph g = barabasi_albert(300, 3, 79);
  const ClusterConfig plain = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 24; ++r) roots.push_back(r * 7 % 300);

  JobOptions o;
  o.roots = roots;
  o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(6),
                              std::make_shared<StaticNInitiation>(3), 0);
  o.parallelism = 1;
  Engine<BcProgram> serial(g, {}, plain, parts);
  const auto base = serial.run(o);
  ASSERT_FALSE(base.failed);
  ASSERT_EQ(base.roots_completed, roots.size());

  const ClusterConfig c = with_forced_migration(
      plain, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05));
  for (const std::uint32_t lanes : {1u, 4u}) {
    o.parallelism = lanes;
    Engine<BcProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.migrations, 0u);
    EXPECT_EQ(r.roots_completed, base.roots_completed);
    EXPECT_EQ(r.swaths_initiated, base.swaths_initiated);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].bc_score, base.values[v].bc_score)
          << "vertex " << v << ", " << lanes << " lanes";
    expect_same_logical_execution(r.metrics, base.metrics);
  }
}

// Until a migration, prepare_superstep lists each partition's actives by
// scanning the activation flags in local order; after one, it sorts them by
// rank. A BC wave walks both paths with every kind of frontier: it starts at
// a few roots, floods most of the graph, drains back to a few vertices, and
// its successor census re-enters through wake_at. Values must match the
// sequential Brandes oracle, each run's modeled record must equal the
// 1-lane run of the same configuration, and a migrated run must repeat the
// unmigrated one's values bit for bit and its logical execution.
TEST(Migration, FrontierWaveMatchesOracleAtAnyLaneCount) {
  const Graph g = barabasi_albert(600, 3, 71);
  const ClusterConfig plain = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);
  const std::vector<VertexId> roots{5, 311, 597};
  const std::vector<double> ref = reference_betweenness(g, roots);

  JobResult<BcProgram> unmigrated;
  for (const bool migrate : {false, true}) {
    const ClusterConfig c =
        migrate ? with_forced_migration(
                      plain, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05))
                : plain;
    JobMetrics serial;
    for (const std::uint32_t lanes : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes, migrate=" + std::to_string(migrate));
      JobOptions o;
      o.roots = roots;
      o.parallelism = lanes;
      Engine<BcProgram> e(g, {}, c, parts);
      const auto r = e.run(o);
      ASSERT_FALSE(r.failed);
      ASSERT_EQ(r.roots_completed, roots.size());
      EXPECT_EQ(r.metrics.migrations > 0, migrate);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_NEAR(r.values[v].bc_score, ref[v], 1e-6) << "vertex " << v;

      // Sparse -> dense -> sparse.
      const auto& steps = r.metrics.supersteps;
      ASSERT_GE(steps.size(), 3u);
      std::uint64_t peak = 0;
      for (const auto& st : steps) peak = std::max(peak, st.active_vertices);
      EXPECT_LE(steps.front().active_vertices, roots.size());
      EXPECT_GE(peak, g.num_vertices() / 2);
      EXPECT_LE(steps.back().active_vertices, roots.size());

      if (lanes == 1)
        serial = r.metrics;
      else
        EXPECT_EQ(first_modeled_difference(r.metrics, serial), "");
      if (!migrate) {
        unmigrated = r;
        continue;
      }
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        EXPECT_EQ(r.values[v].bc_score, unmigrated.values[v].bc_score) << "vertex " << v;
      expect_same_logical_execution(r.metrics, unmigrated.metrics);
    }
  }
}

// Between two migrated runs that differ only in lane count, the FULL metric
// record — per-worker splits, spans, migration accounting — must be
// bit-identical: host parallelism stays a pure wall-clock knob even while
// vertices move.
TEST(Migration, MigratedRunBitIdenticalAcrossLaneCounts) {
  const Graph g = barabasi_albert(600, 3, 71);
  const ClusterConfig c = with_forced_migration(
      eight_partitions_four_vms(),
      std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05));
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions o;
  o.roots = {0};
  o.parallelism = 1;
  Engine<SsspProgram> serial(g, {}, c, parts);
  const auto base = serial.run(o);
  ASSERT_FALSE(base.failed);
  ASSERT_GT(base.metrics.migrations, 0u);

  for (const std::uint32_t lanes : {2u, 4u}) {
    o.parallelism = lanes;
    Engine<SsspProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
    EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
  }
}

// Sender-side combining must survive migration: the combine domain is
// pinned to the sender's home placement, so combined message streams (and
// therefore SSSP's relaxation results) match the unmigrated combined run.
TEST(Migration, CombinerResultsStableUnderMigration) {
  const Graph g = barabasi_albert(500, 4, 83);
  const ClusterConfig plain = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);

  const auto base = algos::run_sssp(g, plain, parts, 0, /*use_combiner=*/true);
  ASSERT_FALSE(base.failed);

  const ClusterConfig c = with_forced_migration(
      plain, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05));
  for (const std::uint32_t lanes : {1u, 4u}) {
    JobOptions o;
    o.roots = {0};
    o.use_combiner = true;
    o.parallelism = lanes;
    Engine<SsspProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.migrations, 0u);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].distance, base.values[v].distance)
          << "vertex " << v << ", " << lanes << " lanes";
  }
}

// A worker failure after a migration rolls back to the checkpoint — which
// must rewind the vertex location tables along with the partition state, or
// replay would route against a layout the restored partitions don't have.
TEST(Migration, FailureRecoveryAfterMigrationReplaysCorrectly) {
  const Graph g = barabasi_albert(400, 3, 89);
  const ClusterConfig plain = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);
  const auto base = algos::run_sssp(g, plain, parts, 0);
  ASSERT_FALSE(base.failed);

  ClusterConfig c = with_forced_migration(
      plain, std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05));
  c.checkpoint_interval = 2;
  c.scheduled_failures = {{3, 1}};  // superstep 3, worker 1: after a migration
  JobOptions o;
  o.roots = {0};
  Engine<SsspProgram> e(g, {}, c, parts);
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_GT(r.metrics.migrations, 0u);
  EXPECT_GT(r.metrics.replayed_supersteps, 0u);
  for (std::size_t v = 0; v < r.values.size(); ++v)
    EXPECT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
}

// Engine reuse: a second run on the same Engine must start from the
// pristine build-time assignment, not the layout the first run migrated to.
TEST(Migration, SecondRunOnSameEngineMatchesFirst) {
  const Graph g = barabasi_albert(400, 3, 97);
  const ClusterConfig c = with_forced_migration(
      eight_partitions_four_vms(),
      std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05));
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions o;
  o.roots = {0};
  Engine<SsspProgram> e(g, {}, c, parts);
  const auto first = e.run(o);
  ASSERT_FALSE(first.failed);
  ASSERT_GT(first.metrics.migrations, 0u);
  const auto second = e.run(o);
  ASSERT_FALSE(second.failed);
  for (std::size_t v = 0; v < first.values.size(); ++v)
    EXPECT_EQ(first.values[v].distance, second.values[v].distance) << "vertex " << v;
  EXPECT_EQ(first_modeled_difference(first.metrics, second.metrics), "");
}

// Governor scale-out rung: a memory-pressured BC run with a spare VM slot
// and migration wired resolves the pressure by growing the cluster —
// no shed rewinds, no governed-OOM episodes, and correct scores.
TEST(Migration, GovernorScaleOutResolvesPressureWithoutShed) {
  const Graph g = barabasi_albert(400, 4, 101);
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 2;  // room to grow
  c.checkpoint_interval = 2;
  c.migration.planner = std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.1);
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 32; ++r) roots.push_back(r * 11 % 400);

  // Ungoverned reference for score correctness.
  JobOptions plain;
  plain.roots = roots;
  plain.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(8),
                                  std::make_shared<StaticNInitiation>(2), 0);
  ClusterConfig c_plain = c;
  c_plain.migration = {};
  c_plain.checkpoint_interval = 0;
  Engine<BcProgram> ref(g, {}, c_plain, parts);
  const auto base = ref.run(plain);
  ASSERT_FALSE(base.failed);

  // Budget set between baseline and the observed peak so the hard watermark
  // trips without tripping the fabric's restart threshold.
  Bytes peak = 0;
  for (const auto& sm : base.metrics.supersteps)
    peak = std::max(peak, sm.max_worker_memory());

  JobOptions o = plain;
  o.swath.memory_target = peak - peak / 8;
  o.governor.enabled = true;
  o.governor.scale_out_enabled = true;
  o.governor.spill_enabled = false;  // keep pressure visible to the hard rung
  o.governor.soft_watermark = 0.999;  // isolate the hard-watermark rung
  o.governor.hard_watermark = 0.999;
  Engine<BcProgram> e(g, {}, c, parts);
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed) << r.failure_reason;
  EXPECT_GE(r.metrics.governor_scale_outs, 1u);
  EXPECT_EQ(r.metrics.governor_sheds, 0u);
  EXPECT_EQ(r.metrics.governed_oom_episodes, 0u);
  EXPECT_EQ(r.roots_completed, roots.size());
  // The governed run legitimately reorders swaths (veto + scale-out), so
  // per-vertex scores accumulate root deltas in a different order: equal to
  // rounding, not bitwise.
  for (std::size_t v = 0; v < r.values.size(); ++v)
    EXPECT_NEAR(r.values[v].bc_score, base.values[v].bc_score,
                1e-9 * (1.0 + std::abs(base.values[v].bc_score)))
        << "vertex " << v;
}

// Elastic scaling with migration wired: the worker-count change triggers a
// physical partition redistribution (priced through the transfer planes)
// and an activity replan, with results still matching the static run.
TEST(Migration, ScalingPolicyTriggersRedistributionAndReplan) {
  const Graph g = barabasi_albert(500, 3, 103);
  ClusterConfig plain;
  plain.num_partitions = 8;
  plain.initial_workers = 4;
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);
  const auto base = algos::run_sssp(g, plain, parts, 0);
  ASSERT_FALSE(base.failed);

  ClusterConfig c = plain;
  c.scaling = std::make_shared<StepUpScaling>(/*at=*/2, /*to=*/8);
  c.migration.planner = std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.1);
  JobOptions o;
  o.roots = {0};
  Engine<SsspProgram> e(g, {}, c, parts);
  const auto r = e.run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_GT(r.metrics.migrations, 0u) << "scale event should redistribute";
  EXPECT_GT(r.metrics.migration_time, 0.0);
  for (std::size_t v = 0; v < r.values.size(); ++v)
    EXPECT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
  expect_same_logical_execution(r.metrics, base.metrics);
}

// A plan that names one vertex twice would leave a ghost copy computing in
// the second target partition (extra messages, an extra active vertex);
// the engine must reject it before anything moves.
TEST(Migration, PlanNamingAVertexTwiceIsRejected) {
  class TwiceMovingPlanner final : public MigrationPlanner {
   public:
    MigrationPlan plan(const RebalanceSignals& s) override {
      const PartitionId from = (*s.part_of)[0];
      const auto parts = static_cast<PartitionId>(s.active.size());
      return {{{0, from, static_cast<PartitionId>((from + 1) % parts)},
               {0, from, static_cast<PartitionId>((from + 2) % parts)}}};
    }
    std::string name() const override { return "twice"; }
  };
  const Graph g = barabasi_albert(600, 3, 71);
  const ClusterConfig c =
      with_forced_migration(eight_partitions_four_vms(), std::make_shared<TwiceMovingPlanner>(),
                            /*period=*/1);
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  JobOptions o;
  o.roots = {0};
  Engine<SsspProgram> e(g, {}, c, parts);
  EXPECT_THROW(e.run(o), std::logic_error);
}

// NoMigrationPlanner is a placebo: installing it moves nothing, so a BC run
// with delta checkpoints must price every leg, and so every modeled
// quantity, exactly as the run without a planner does. BC charges state
// bytes, which the delta legs carry per dirty vertex.
TEST(Migration, NoMigrationPlannerIsAPlacebo) {
  const Graph g = barabasi_albert(3000, 3, 71);
  ClusterConfig plain;
  plain.num_partitions = 4;
  plain.initial_workers = 4;
  plain.checkpoint_interval = 2;
  ASSERT_TRUE(plain.ckpt.delta_enabled);
  const auto parts = HashPartitioner{}.partition(g, plain.num_partitions);

  JobOptions o;
  for (VertexId r = 0; r < 12; ++r) o.roots.push_back(r * 250);
  const auto base = Engine<BcProgram>(g, {}, plain, parts).run(o);
  ASSERT_FALSE(base.failed);
  ASSERT_GT(base.metrics.checkpoint_deltas, 0u);

  const ClusterConfig placebo =
      with_forced_migration(plain, std::make_shared<NoMigrationPlanner>(), /*period=*/1);
  const auto r = Engine<BcProgram>(g, {}, placebo, parts).run(o);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.metrics.migrations, 0u);
  EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "");
  for (std::size_t v = 0; v < r.values.size(); ++v)
    EXPECT_EQ(r.values[v].bc_score, base.values[v].bc_score) << "vertex " << v;
}

// The per-vertex book (state bytes, dirty flags, wakes) across a rewind
// after migrations: swathed BC schedules wakes and charges state bytes in
// most supersteps, a planner moves vertices at every barrier, checkpoints
// are deltas where no move intervened, and one worker dies mid-run. The
// restore rewinds the location tables and the book together; values must
// match the sequential Brandes oracle, and the modeled record must not
// depend on the lane count.
TEST(Migration, BookRewindsWithLocationTablesAfterMigration) {
  const Graph g = barabasi_albert(600, 3, 71);
  ClusterConfig c = with_forced_migration(
      eight_partitions_four_vms(),
      std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.2), /*period=*/1);
  c.checkpoint_interval = 2;
  c.scheduled_failures = {{9, 1}};  // superstep 9, worker 1
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 12; ++r) roots.push_back(r * 47 % 600);
  const std::vector<double> ref = reference_betweenness(g, roots);

  JobOptions o;
  o.roots = roots;
  o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(4),
                              std::make_shared<StaticNInitiation>(2), 0);
  JobMetrics serial;
  for (const std::uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    o.parallelism = lanes;
    const auto r = Engine<BcProgram>(g, {}, c, parts).run(o);
    ASSERT_FALSE(r.failed) << r.failure_reason;
    ASSERT_EQ(r.roots_completed, roots.size());
    EXPECT_GT(r.metrics.migrations, 0u);
    EXPECT_EQ(r.metrics.worker_failures, 1u);
    EXPECT_GT(r.metrics.replayed_supersteps, 0u);
    EXPECT_GT(r.metrics.checkpoint_deltas, 0u);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].bc_score, ref[v], 1e-6) << "vertex " << v;
    if (lanes == 1)
      serial = r.metrics;
    else
      EXPECT_EQ(first_modeled_difference(r.metrics, serial), "");
  }
}

}  // namespace
}  // namespace pregel
