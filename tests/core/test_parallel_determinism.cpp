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
#include "support/determinism.hpp"

namespace pregel {
namespace {

using algos::BcProgram;
using algos::ComponentsProgram;
using algos::PageRankProgram;
using algos::SsspProgram;

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
    EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
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
  EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "");
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
      EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
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
    EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
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
  EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "");
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
    EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
  }
}

}  // namespace
}  // namespace pregel
