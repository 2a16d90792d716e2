// The engine's host-parallelism contract: JobOptions::parallelism changes
// only wall-clock, never results. Every run here is compared bit-for-bit —
// vertex values, modeled total time, and the full per-superstep / per-worker
// metric records — across thread counts, including a single lane.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algos/bc.hpp"
#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "util/thread_pool.hpp"

namespace pregel {
namespace {

using algos::BcProgram;
using algos::ComponentsProgram;
using algos::PageRankProgram;
using algos::SsspProgram;

// Exact equality of the full metric record. Doubles are compared with ==
// deliberately: the contract is bit-identical replay of the serial
// floating-point evaluation order, not approximate agreement.
void expect_identical_metrics(const JobMetrics& a, const JobMetrics& b) {
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.setup_time, b.setup_time);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  ASSERT_EQ(a.supersteps.size(), b.supersteps.size());
  for (std::size_t s = 0; s < a.supersteps.size(); ++s) {
    const SuperstepMetrics& x = a.supersteps[s];
    const SuperstepMetrics& y = b.supersteps[s];
    EXPECT_EQ(x.superstep, y.superstep);
    EXPECT_EQ(x.active_vertices, y.active_vertices) << "superstep " << s;
    EXPECT_EQ(x.active_roots, y.active_roots) << "superstep " << s;
    EXPECT_EQ(x.span, y.span) << "superstep " << s;
    EXPECT_EQ(x.barrier_overhead, y.barrier_overhead) << "superstep " << s;
    ASSERT_EQ(x.workers.size(), y.workers.size()) << "superstep " << s;
    for (std::size_t w = 0; w < x.workers.size(); ++w) {
      const WorkerStepMetrics& u = x.workers[w];
      const WorkerStepMetrics& v = y.workers[w];
      EXPECT_EQ(u.vertices_computed, v.vertices_computed) << s << "/" << w;
      EXPECT_EQ(u.messages_processed, v.messages_processed) << s << "/" << w;
      EXPECT_EQ(u.messages_sent_local, v.messages_sent_local) << s << "/" << w;
      EXPECT_EQ(u.messages_sent_remote, v.messages_sent_remote) << s << "/" << w;
      EXPECT_EQ(u.bytes_sent_remote, v.bytes_sent_remote) << s << "/" << w;
      EXPECT_EQ(u.bytes_received_remote, v.bytes_received_remote) << s << "/" << w;
      EXPECT_EQ(u.memory_peak, v.memory_peak) << s << "/" << w;
      EXPECT_EQ(u.compute_time, v.compute_time) << s << "/" << w;
      EXPECT_EQ(u.network_time, v.network_time) << s << "/" << w;
    }
  }
}

ClusterConfig eight_partitions_four_vms() {
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 4;  // two partitions per VM: local AND remote traffic
  return c;
}

// Thread counts to sweep: one lane, two, four, and whatever the host offers
// (deduplicated; on a single-core builder "hardware" is one lane and the
// explicit 2/4 still drive the pool and the staged merge).
std::vector<std::uint32_t> lane_sweep() {
  std::vector<std::uint32_t> lanes{1, 2, 4};
  const unsigned hw = ThreadPool::hardware_threads();
  if (hw > 1 && hw != 2 && hw != 4) lanes.push_back(hw);
  return lanes;
}

TEST(ParallelDeterminism, PageRankBitIdenticalAcrossLaneCounts) {
  const Graph g = barabasi_albert(600, 3, 41);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions o;
  o.start_all_vertices = true;
  o.parallelism = 1;
  Engine<PageRankProgram> serial(g, {20, 0.85}, c, parts);
  const auto base = serial.run(o);
  ASSERT_FALSE(base.failed);

  for (std::uint32_t lanes : lane_sweep()) {
    o.parallelism = lanes;
    Engine<PageRankProgram> e(g, {20, 0.85}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed) << lanes << " lanes";
    ASSERT_EQ(r.values.size(), base.values.size());
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].rank, base.values[v].rank) << "vertex " << v << ", "
                                                       << lanes << " lanes";
    expect_identical_metrics(r.metrics, base.metrics);
  }
}

// PageRank's dangling-mass aggregate sums doubles every superstep — the
// staged per-partition log replay must reproduce serial summation order.
TEST(ParallelDeterminism, PageRankAggregatePathWithCombiner) {
  // Star-heavy graph: dangling vertices guarantee aggregate traffic.
  const Graph g = erdos_renyi(400, 900, 47);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions o;
  o.start_all_vertices = true;
  o.use_combiner = true;
  o.parallelism = 1;
  Engine<PageRankProgram> serial(g, {15, 0.85}, c, parts);
  const auto base = serial.run(o);

  o.parallelism = 4;
  Engine<PageRankProgram> par(g, {15, 0.85}, c, parts);
  const auto r = par.run(o);
  for (std::size_t v = 0; v < r.values.size(); ++v)
    EXPECT_EQ(r.values[v].rank, base.values[v].rank);
  expect_identical_metrics(r.metrics, base.metrics);
}

TEST(ParallelDeterminism, ComponentsBitIdenticalWithAndWithoutCombiner) {
  const Graph g = watts_strogatz(500, 6, 0.2, 43);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  for (bool combine : {false, true}) {
    JobOptions o;
    o.start_all_vertices = true;
    o.use_combiner = combine;
    o.parallelism = 1;
    Engine<ComponentsProgram> serial(g, {}, c, parts);
    const auto base = serial.run(o);

    for (std::uint32_t lanes : lane_sweep()) {
      o.parallelism = lanes;
      Engine<ComponentsProgram> e(g, {}, c, parts);
      const auto r = e.run(o);
      for (std::size_t v = 0; v < r.values.size(); ++v)
        EXPECT_EQ(r.values[v].label, base.values[v].label)
            << "vertex " << v << ", " << lanes << " lanes, combiner " << combine;
      expect_identical_metrics(r.metrics, base.metrics);
    }
  }
}

// BC drives every staged path at once: seeds, swath scheduling, wake_at,
// aggregates, master-side root completion, and double-valued scores.
TEST(ParallelDeterminism, BcSwathedBitIdenticalAcrossLaneCounts) {
  const Graph g = barabasi_albert(300, 3, 59);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 24; ++r) roots.push_back(r * 7 % 300);

  JobOptions o;
  o.roots = roots;
  o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(6),
                              std::make_shared<StaticNInitiation>(3), 0);
  o.parallelism = 1;
  Engine<BcProgram> serial(g, {}, c, parts);
  const auto base = serial.run(o);
  ASSERT_FALSE(base.failed);
  EXPECT_EQ(base.roots_completed, roots.size());

  for (std::uint32_t lanes : lane_sweep()) {
    o.parallelism = lanes;
    Engine<BcProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    EXPECT_EQ(r.roots_completed, base.roots_completed);
    EXPECT_EQ(r.swaths_initiated, base.swaths_initiated);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].bc_score, base.values[v].bc_score)
          << "vertex " << v << ", " << lanes << " lanes";
    expect_identical_metrics(r.metrics, base.metrics);
  }
}

// parallelism = 0 resolves to the host's lane count; whatever that is, the
// results must match an explicit serial run.
TEST(ParallelDeterminism, DefaultParallelismMatchesSerial) {
  const Graph g = grid_graph(20, 25);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions o;
  o.start_all_vertices = true;
  o.parallelism = 1;
  Engine<ComponentsProgram> serial(g, {}, c, parts);
  const auto base = serial.run(o);

  o.parallelism = 0;
  Engine<ComponentsProgram> def(g, {}, c, parts);
  const auto r = def.run(o);
  for (std::size_t v = 0; v < r.values.size(); ++v)
    EXPECT_EQ(r.values[v].label, base.values[v].label);
  expect_identical_metrics(r.metrics, base.metrics);
}

// Combiner equivalence: combining is a transport optimization, so final
// vertex values match the uncombined run exactly (min/sum merges are
// order-insensitive for these programs) while message counts shrink.
TEST(CombinerEquivalence, SsspValuesUnchangedMessagesReduced) {
  const Graph g = barabasi_albert(500, 4, 61);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  const auto plain = algos::run_sssp(g, c, parts, /*source=*/0, /*use_combiner=*/false);
  const auto combined = algos::run_sssp(g, c, parts, /*source=*/0, /*use_combiner=*/true);
  ASSERT_EQ(plain.values.size(), combined.values.size());
  for (std::size_t v = 0; v < plain.values.size(); ++v)
    EXPECT_EQ(plain.values[v].distance, combined.values[v].distance) << "vertex " << v;
  EXPECT_LT(combined.metrics.total_messages(), plain.metrics.total_messages());
}

TEST(CombinerEquivalence, ParallelCombinedMatchesSerialCombined) {
  const Graph g = barabasi_albert(500, 4, 61);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions o;
  o.roots = {0};
  o.use_combiner = true;
  o.parallelism = 1;
  Engine<SsspProgram> serial(g, {}, c, parts);
  const auto base = serial.run(o);

  for (std::uint32_t lanes : lane_sweep()) {
    o.parallelism = lanes;
    Engine<SsspProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].distance, base.values[v].distance)
          << "vertex " << v << ", " << lanes << " lanes";
    expect_identical_metrics(r.metrics, base.metrics);
  }
}

}  // namespace
}  // namespace pregel
