// Golden digests: one FNV-1a fingerprint per canonical configuration, pinned
// once and asserted at parallelism 1 and 4 forever after.
//
// The lane-count determinism suites compare parallelism 1 against N, so a
// change to the shared superstep path that shifted results identically at
// every width would slip past them. These digests anchor the modeled record
// to fixed values instead: the vertex-value bits, the total_time and
// cost_usd bits, the superstep count, the total message count, and every
// superstep's pull_mode decision. Each configuration is also checked against
// its independent sequential oracle in src/graph/analysis, so a pinned digest
// is known to fingerprint a correct result.
//
// A digest changes only when the modeled semantics change on purpose (a new
// cost term, a different message order); re-pin it in the same change and
// say why.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "algos/bc.hpp"
#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
#include "subgraph/components.hpp"

namespace pregel {
namespace {

using algos::BcProgram;
using algos::ComponentsProgram;
using algos::PageRankProgram;
using algos::SsspProgram;
using subgraph::ComponentsSubgraphProgram;

class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename Program, typename ValueBits>
std::uint64_t digest(const JobResult<Program>& r, ValueBits value_bits) {
  Fnv1a h;
  for (const auto& v : r.values) h.add(value_bits(v));
  h.add(r.metrics.total_time);
  h.add(r.metrics.cost_usd);
  h.add(static_cast<std::uint64_t>(r.metrics.supersteps.size()));
  h.add(r.metrics.total_messages());
  for (const SuperstepMetrics& s : r.metrics.supersteps)
    h.add(static_cast<std::uint64_t>(s.pull_mode));
  return h.value();
}

ClusterConfig eight_partitions_four_vms() {
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 4;
  return c;
}

// Pinned before the serial compute path was folded into the staged chunk
// loop; that change left every one of them untouched.
constexpr std::uint64_t kPageRankCombinerOn = 0x40d4a5f2e9370339ULL;
constexpr std::uint64_t kPageRankCombinerOff = 0xae431a9f043f039dULL;
constexpr std::uint64_t kBcSwathed = 0xfc48a02031dc58e6ULL;
constexpr std::uint64_t kSsspDirectionAuto = 0xae1ff8d3f5a558a8ULL;
constexpr std::uint64_t kComponents = 0x3bd4186fc4348522ULL;
constexpr std::uint64_t kSsspForcedMigration = 0x7f3d0fdf25f39671ULL;
constexpr std::uint64_t kSubgraphComponents = 0x75428495c530b76cULL;
// Pinned before per-vertex inboxes became one flat arena per partition.
constexpr std::uint64_t kPageRankCombinerCheckpointedMigration = 0x038c68b2a515c4d4ULL;
constexpr std::uint64_t kBcSwathedPullAlways = 0xda852d74a8059127ULL;
// Pinned while tenancy noise and worker deaths still had seeds of their own
// outside the fault plan; folding every stream onto FaultPlan::seed left it
// untouched.
constexpr std::uint64_t kPageRankAllFaultStreams = 0x27d01126901f4fa7ULL;
// Pinned while every remote send still wrote a confined-replay log entry of
// its own; deriving the log from the per-link send tally left it untouched.
constexpr std::uint64_t kPageRankConfinedRecovery = 0x39bbc0fa3e70e5a3ULL;
constexpr std::uint64_t kPageRankConfinedRecoveryRows = 0x2bf44e3619e897ddULL;

constexpr std::uint32_t kLanes[] = {1, 4};

constexpr auto kRankBits = [](const auto& x) { return std::bit_cast<std::uint64_t>(x.rank); };
constexpr auto kBcBits = [](const auto& x) { return std::bit_cast<std::uint64_t>(x.bc_score); };
constexpr auto kDistanceBits = [](const auto& x) { return std::uint64_t{x.distance}; };
constexpr auto kLabelBits = [](const auto& x) { return std::uint64_t{x.label}; };

void expect_pagerank_digest(bool combiner, std::uint64_t golden) {
  const Graph g = barabasi_albert(500, 3, 2013);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto ref = reference_pagerank(g, 12);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.start_all_vertices = true;
    o.use_combiner = combiner;
    o.parallelism = lanes;
    Engine<PageRankProgram> e(g, {12, 0.85}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].rank, ref[v], 1e-12) << "vertex " << v;
    EXPECT_EQ(digest(r, kRankBits), golden) << lanes << " lanes";
  }
}

TEST(GoldenDigest, PageRankCombinerOn) { expect_pagerank_digest(true, kPageRankCombinerOn); }

TEST(GoldenDigest, PageRankCombinerOff) { expect_pagerank_digest(false, kPageRankCombinerOff); }

// Combiner chains, buffered messages re-homed by migration, and buffered
// messages carried through delta checkpoints and a rollback, in one run.
TEST(GoldenDigest, PageRankCombinerCheckpointedMigration) {
  const Graph g = barabasi_albert(500, 3, 2013);
  ClusterConfig c = eight_partitions_four_vms();
  c.migration.planner = std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05);
  c.migration.period = 2;
  c.checkpoint_interval = 2;
  c.ckpt.delta_enabled = true;
  c.scheduled_failures = {{5, 1}};
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto ref = reference_pagerank(g, 12);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.start_all_vertices = true;
    o.use_combiner = true;
    o.parallelism = lanes;
    Engine<PageRankProgram> e(g, {12, 0.85}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.migrations, 0u) << "planner never fired";
    EXPECT_GT(r.metrics.checkpoint_deltas, 0u) << "no delta generation";
    EXPECT_EQ(r.metrics.worker_failures, 1u);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].rank, ref[v], 1e-12) << "vertex " << v;
    EXPECT_EQ(digest(r, kRankBits), kPageRankCombinerCheckpointedMigration)
        << lanes << " lanes";
  }
}

// One worker death under confined recovery: the healthy workers' replay
// supersteps are priced from the logged per-link remote bytes.
TEST(GoldenDigest, PageRankConfinedRecovery) {
  const Graph g = barabasi_albert(500, 3, 2013);
  ClusterConfig c = eight_partitions_four_vms();
  c.checkpoint_interval = 3;
  c.recovery_mode = RecoveryMode::kConfined;
  c.scheduled_failures = {{7, 2}};
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto ref = reference_pagerank(g, 12);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.start_all_vertices = true;
    o.parallelism = lanes;
    Engine<PageRankProgram> e(g, {12, 0.85}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_EQ(r.metrics.worker_failures, 1u);
    EXPECT_GT(r.metrics.confined_replay_time, 0.0) << "no confined replay";
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].rank, ref[v], 1e-12) << "vertex " << v;
    EXPECT_EQ(digest(r, kRankBits), kPageRankConfinedRecovery) << lanes << " lanes";
    // The span can hide a healthy worker's re-delivery behind the lost
    // worker's recompute, so every worker row's network time is pinned too.
    Fnv1a rows;
    for (const SuperstepMetrics& s : r.metrics.supersteps)
      for (const WorkerStepMetrics& w : s.workers) rows.add(w.network_time);
    EXPECT_EQ(rows.value(), kPageRankConfinedRecoveryRows) << lanes << " lanes";
  }
}

TEST(GoldenDigest, BcSwathed) {
  const Graph g = barabasi_albert(300, 3, 2013);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 12; ++r) roots.push_back(r * 23 % g.num_vertices());
  const auto ref = reference_betweenness(g, roots);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.roots = roots;
    o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(4),
                                std::make_shared<StaticNInitiation>(2), 0);
    o.parallelism = lanes;
    Engine<BcProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_EQ(r.roots_completed, roots.size());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].bc_score, ref[v], 1e-9 * std::max(1.0, std::abs(ref[v])))
          << "vertex " << v;
    EXPECT_EQ(digest(r, kBcBits), kBcSwathed) << lanes << " lanes";
  }
}

// Every broadcast superstep pulls: the destination-side synthesis of the
// push stream, seeds landing behind pulled messages, and root completions.
TEST(GoldenDigest, BcSwathedPullAlways) {
  const Graph g = barabasi_albert(300, 3, 2013);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 12; ++r) roots.push_back(r * 23 % g.num_vertices());
  const auto ref = reference_betweenness(g, roots);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.roots = roots;
    o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(4),
                                std::make_shared<StaticNInitiation>(2), 0);
    o.direction.mode = DirectionOptions::Mode::kAlways;
    o.parallelism = lanes;
    Engine<BcProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_EQ(r.roots_completed, roots.size());
    EXPECT_EQ(r.metrics.pull_supersteps, r.metrics.supersteps.size());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].bc_score, ref[v], 1e-9 * std::max(1.0, std::abs(ref[v])))
          << "vertex " << v;
    EXPECT_EQ(digest(r, kBcBits), kBcSwathedPullAlways) << lanes << " lanes";
  }
}

void expect_sssp_matches_bfs(const Graph& g, const JobResult<SsspProgram>& r) {
  const auto ref = bfs_distances(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t want = ref[v] == kUnreachable ? SsspProgram::kUnreached : ref[v];
    ASSERT_EQ(r.values[v].distance, want) << "vertex " << v;
  }
}

TEST(GoldenDigest, SsspDirectionAuto) {
  const Graph g = barabasi_albert(600, 4, 2013);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.roots = {0};
    o.direction.mode = DirectionOptions::Mode::kAuto;
    o.parallelism = lanes;
    Engine<SsspProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.pull_supersteps, 0u) << "heuristic never pulled";
    expect_sssp_matches_bfs(g, r);
    EXPECT_EQ(digest(r, kDistanceBits), kSsspDirectionAuto) << lanes << " lanes";
  }
}

TEST(GoldenDigest, Components) {
  const Graph g = watts_strogatz(500, 4, 0.1, 2013);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto ref = connected_components(g);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.start_all_vertices = true;
    o.use_combiner = true;
    o.parallelism = lanes;
    Engine<ComponentsProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(r.values[v].label, ref.component[v]) << "vertex " << v;
    EXPECT_EQ(digest(r, kLabelBits), kComponents) << lanes << " lanes";
  }
}

TEST(GoldenDigest, SsspForcedMigration) {
  const Graph g = barabasi_albert(600, 3, 2013);
  ClusterConfig c = eight_partitions_four_vms();
  c.migration.planner = std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05);
  c.migration.period = 2;
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.roots = {0};
    o.direction.mode = DirectionOptions::Mode::kOff;
    o.parallelism = lanes;
    Engine<SsspProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.migrations, 0u) << "planner never fired";
    expect_sssp_matches_bfs(g, r);
    EXPECT_EQ(digest(r, kDistanceBits), kSsspForcedMigration) << lanes << " lanes";
  }
}

TEST(GoldenDigest, SubgraphComponents) {
  const Graph g = watts_strogatz(500, 4, 0.1, 2013);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto ref = connected_components(g);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.start_all_vertices = true;
    o.parallelism = lanes;
    Engine<ComponentsSubgraphProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(r.values[v].label, ref.component[v]) << "vertex " << v;
    EXPECT_EQ(digest(r, kLabelBits), kSubgraphComponents) << lanes << " lanes";
  }
}

// Every stream of the fault plan on at once, from one seed: transient queue
// and blob faults, corrupt reads and deliveries, torn and rotting
// checkpoints under a scrub, manager failovers, zone outages, duplicated
// barrier traffic, worker deaths, stragglers and tenancy noise.
TEST(GoldenDigest, PageRankAllFaultStreams) {
  const Graph g = barabasi_albert(500, 3, 2013);
  ClusterConfig c = eight_partitions_four_vms();
  c.availability_zones = 2;
  c.checkpoint_interval = 2;
  c.ckpt.scrub_period = 2;
  cloud::FaultPlan& f = c.faults;
  f.queue_op_failure_rate = 0.02;
  f.blob_read_failure_rate = 0.05;
  f.blob_write_failure_rate = 0.05;
  f.blob_corruption_rate = 0.1;
  f.queue_corruption_rate = 0.02;
  f.ckpt_torn_write_rate = 0.05;
  f.ckpt_rot_rate = 0.05;
  f.manager_preemption_rate = 0.05;
  f.zone_outage_rate = 0.01;
  f.queue_duplicate_rate = 0.1;
  f.straggler_rate = 0.1;
  f.tenancy_sigma = 0.2;
  f.vm_preemption_rate = 0.01;
  f.seed = 0xC10DD;
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto ref = reference_pagerank(g, 20);
  for (const std::uint32_t lanes : kLanes) {
    JobOptions o;
    o.start_all_vertices = true;
    o.use_combiner = true;
    o.parallelism = lanes;
    Engine<PageRankProgram> e(g, {20, 0.85}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.worker_failures, 0u);
    EXPECT_GT(r.metrics.retries_attempted, 0u) << "no masked retry";
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(r.values[v].rank, ref[v], 1e-12) << "vertex " << v;
    EXPECT_EQ(digest(r, kRankBits), kPageRankAllFaultStreams) << lanes << " lanes";

    // The slowdown streams are pure functions of (vm, superstep): redraw
    // them for every superstep the run executed to show both struck.
    const cloud::FaultInjector weather(f);
    bool straggled = false, noisy = false;
    for (const SuperstepMetrics& s : r.metrics.supersteps) {
      for (std::uint32_t vm = 0; vm < s.active_workers; ++vm) {
        const double episode = weather.straggler_factor(vm, s.superstep);
        straggled = straggled || episode > 1.0;
        noisy = noisy || weather.slowdown(vm, s.superstep) > episode;
      }
    }
    EXPECT_TRUE(straggled) << "no straggler episode";
    EXPECT_TRUE(noisy) << "no tenancy slowdown";
  }
}

}  // namespace
}  // namespace pregel
