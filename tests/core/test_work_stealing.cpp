// The frontier-chunk stealing contract: a chunk is a grain-sized slice of
// a partition's sorted active list, and a pathologically skewed
// partitioning (one partition owns ~90% of the frontier) must produce
// bit-identical values and modeled metrics at every lane count, every
// grain and under any steal schedule. Steal counters themselves are
// wall-clock artifacts and are the ONE exemption from the bit-identity
// contract; everything else — including the direction-optimizer's
// pull/push decisions — must replay exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algos/bc.hpp"
#include "algos/components.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "support/determinism.hpp"

namespace pregel {
namespace {

using algos::BcProgram;
using algos::ComponentsProgram;
using algos::SsspProgram;

// ~90% of vertices piled into partition 0; the remainder round-robins over
// the other partitions. Chunk queues seeded from this are maximally lopsided,
// so dry lanes must steal to contribute.
Partitioning skewed_partitioning(VertexId n, PartitionId parts) {
  std::vector<PartitionId> assign(n, 0);
  const VertexId tail_start = n - n / 10;
  for (VertexId v = tail_start; v < n; ++v)
    assign[v] = static_cast<PartitionId>(1 + (v - tail_start) % (parts - 1));
  return {std::move(assign), parts};
}

TEST(WorkStealing, SkewedFrontierSsspBitIdenticalAcrossLanes) {
  const Graph g = barabasi_albert(800, 3, 71);
  const ClusterConfig c = eight_partitions_four_vms();
  const Partitioning parts = skewed_partitioning(g.num_vertices(), c.num_partitions);

  JobOptions o;
  o.roots = {0};
  o.frontier_grain = 16;  // many chunks per partition -> rich steal surface
  o.parallelism = 1;
  Engine<SsspProgram> serial(g, {}, c, parts);
  const auto base = serial.run(o);
  ASSERT_FALSE(base.failed);

  // Chunk boundaries: one vertex per chunk, and one chunk per partition (a
  // grain larger than any frontier).
  for (const std::uint32_t grain : {16u, 1u, 1u << 20}) {
    o.frontier_grain = grain;
    for (std::uint32_t lanes : lane_sweep()) {
      o.parallelism = lanes;
      Engine<SsspProgram> e(g, {}, c, parts);
      const auto r = e.run(o);
      ASSERT_FALSE(r.failed) << lanes << " lanes, grain " << grain;
      ASSERT_EQ(r.values.size(), base.values.size());
      for (std::size_t v = 0; v < r.values.size(); ++v)
        EXPECT_EQ(r.values[v].distance, base.values[v].distance)
            << "vertex " << v << ", " << lanes << " lanes, grain " << grain;
      EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "")
          << lanes << " lanes, grain " << grain;
    }
  }
}

// BC layers every staged side effect (seeds, wakes, aggregates, root
// completion, backward pointwise sends interleaved with forward broadcasts)
// on top of the skewed frontier.
TEST(WorkStealing, SkewedFrontierBcBitIdenticalAcrossLanes) {
  const Graph g = barabasi_albert(400, 3, 73);
  const ClusterConfig c = eight_partitions_four_vms();
  const Partitioning parts = skewed_partitioning(g.num_vertices(), c.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 16; ++r) roots.push_back(r * 11 % 400);

  JobOptions o;
  o.roots = roots;
  o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(4),
                              std::make_shared<StaticNInitiation>(2), 0);
  o.frontier_grain = 16;
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
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].bc_score, base.values[v].bc_score)
          << "vertex " << v << ", " << lanes << " lanes";
    EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
  }
}

// Under heavy skew a dry lane steals whenever its queue empties while work
// remains — that needs no true parallelism, only that the lane gets scheduled
// before the loaded lane drains hundreds of chunks. A single run can still
// lose every race on a busy single-core builder, so retry a few times;
// determinism makes repeat runs free.
TEST(WorkStealing, SkewRecordsStealsAtParallelism) {
  const Graph g = barabasi_albert(1500, 4, 79);
  const ClusterConfig c = eight_partitions_four_vms();
  const Partitioning parts = skewed_partitioning(g.num_vertices(), c.num_partitions);

  JobOptions o;
  o.start_all_vertices = true;
  o.frontier_grain = 8;
  o.parallelism = 4;

  std::uint64_t steals = 0;
  for (int attempt = 0; attempt < 8 && steals == 0; ++attempt) {
    Engine<ComponentsProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    steals = r.metrics.work_steals;
    // stolen_chunks moves with steals: both zero or both positive.
    EXPECT_EQ(r.metrics.work_steals == 0, r.metrics.stolen_chunks == 0);
  }
  EXPECT_GE(steals, 1u) << "no steal recorded in 8 skewed runs";
}

// Direction optimization is a traversal-order optimization, not a semantic
// one: forced-pull, forced-push, and the auto heuristic must agree on values
// and message counts exactly.
TEST(DirectionOptimization, ModesAgreeBitIdentically) {
  const Graph g = barabasi_albert(600, 3, 83);
  const ClusterConfig c = eight_partitions_four_vms();
  const Partitioning parts = skewed_partitioning(g.num_vertices(), c.num_partitions);

  JobOptions o;
  o.roots = {0};
  o.parallelism = 2;
  o.direction.mode = DirectionOptions::Mode::kOff;
  Engine<SsspProgram> push(g, {}, c, parts);
  const auto base = push.run(o);
  ASSERT_FALSE(base.failed);
  EXPECT_EQ(base.metrics.pull_supersteps, 0u);

  for (const auto mode : {DirectionOptions::Mode::kAuto, DirectionOptions::Mode::kAlways}) {
    o.direction.mode = mode;
    Engine<SsspProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].distance, base.values[v].distance) << "vertex " << v;
    EXPECT_EQ(r.metrics.total_messages(), base.metrics.total_messages());
    EXPECT_EQ(r.metrics.total_time, base.metrics.total_time);
  }

  // Forced pull actually engages: every superstep with traffic runs pulled.
  o.direction.mode = DirectionOptions::Mode::kAlways;
  Engine<SsspProgram> pulled(g, {}, c, parts);
  const auto rp = pulled.run(o);
  EXPECT_GT(rp.metrics.pull_supersteps, 0u);
}

// The auto heuristic's switch sequence is part of the modeled record: it must
// be identical at every lane count (decide_direction reads only modeled
// frontier state), and dense label floods should actually trigger it.
TEST(DirectionOptimization, AutoHeuristicReplaysAcrossLanes) {
  const Graph g = watts_strogatz(700, 6, 0.15, 89);
  const ClusterConfig c = eight_partitions_four_vms();
  const Partitioning parts = skewed_partitioning(g.num_vertices(), c.num_partitions);

  JobOptions o;
  o.start_all_vertices = true;
  o.parallelism = 1;
  Engine<ComponentsProgram> serial(g, {}, c, parts);
  const auto base = serial.run(o);
  // A start-all label flood saturates the frontier: the heuristic must pull.
  EXPECT_GT(base.metrics.pull_supersteps, 0u);

  for (std::uint32_t lanes : lane_sweep()) {
    o.parallelism = lanes;
    Engine<ComponentsProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].label, base.values[v].label)
          << "vertex " << v << ", " << lanes << " lanes";
    EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
  }
}

// Inbox-shrink hygiene: re-running the same job on the same engine must not
// inherit capacity or staging state from the first run — memory_peak and
// every other modeled metric replay bit-for-bit.
TEST(WorkStealing, RerunOnSameEngineIsBitIdentical) {
  const Graph g = barabasi_albert(500, 3, 97);
  const ClusterConfig c = eight_partitions_four_vms();
  const Partitioning parts = skewed_partitioning(g.num_vertices(), c.num_partitions);

  JobOptions o;
  o.roots = {0};
  o.frontier_grain = 16;
  o.parallelism = 4;
  Engine<SsspProgram> e(g, {}, c, parts);
  const auto first = e.run(o);
  const auto second = e.run(o);
  ASSERT_FALSE(first.failed);
  ASSERT_FALSE(second.failed);
  for (std::size_t v = 0; v < first.values.size(); ++v)
    EXPECT_EQ(first.values[v].distance, second.values[v].distance) << "vertex " << v;
  EXPECT_EQ(first_modeled_difference(first.metrics, second.metrics), "");
}

// One engine reused across runs that change the lane count, the direction
// mode and whether the governor may scale out (which makes migration
// possible). Every run must replay a fresh engine's run bit-for-bit: no
// staging state sized for one shape may leak into the next.
TEST(WorkStealing, ReusedEngineMatchesFreshAcrossShapes) {
  const Graph g = barabasi_albert(600, 3, 101);
  const ClusterConfig c = eight_partitions_four_vms();
  const Partitioning parts = skewed_partitioning(g.num_vertices(), c.num_partitions);

  struct Shape {
    std::uint32_t lanes;
    DirectionOptions::Mode direction;
    bool scale_out;
  };
  const Shape shapes[] = {
      {4, DirectionOptions::Mode::kAlways, true},
      {1, DirectionOptions::Mode::kOff, false},
      {4, DirectionOptions::Mode::kAuto, true},
      {1, DirectionOptions::Mode::kAlways, false},
  };
  Engine<SsspProgram> reused(g, {}, c, parts);
  for (const Shape& s : shapes) {
    JobOptions o;
    o.roots = {0};
    o.use_combiner = true;
    o.frontier_grain = 16;
    o.parallelism = s.lanes;
    o.direction.mode = s.direction;
    o.governor.enabled = true;
    o.governor.scale_out_enabled = s.scale_out;
    const auto again = reused.run(o);
    Engine<SsspProgram> fresh_engine(g, {}, c, parts);
    const auto fresh = fresh_engine.run(o);
    ASSERT_FALSE(fresh.failed) << s.lanes << " lanes";
    ASSERT_FALSE(again.failed) << s.lanes << " lanes";
    for (std::size_t v = 0; v < fresh.values.size(); ++v)
      EXPECT_EQ(again.values[v].distance, fresh.values[v].distance)
          << "vertex " << v << ", " << s.lanes << " lanes";
    EXPECT_EQ(first_modeled_difference(again.metrics, fresh.metrics), "") << s.lanes << " lanes";
  }
}

}  // namespace
}  // namespace pregel
