// The frontier-chunk stealing contract: a chunk is a grain-sized slice of
// a partition's sorted active list, and a pathologically skewed
// partitioning (one partition owns ~90% of the frontier) must produce
// bit-identical values and modeled metrics at every lane count, every
// grain and under any steal schedule. Steal counters themselves are
// wall-clock artifacts and are the ONE exemption from the bit-identity
// contract; everything else — including the direction-optimizer's
// pull/push decisions — must replay exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "algos/bc.hpp"
#include "algos/components.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "partition/rebalance.hpp"
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

/// BcProgram with a probe on its context: counts the compute() calls that
/// both send pointwise and broadcast, the calls whose emissions the pull
/// merge must interleave by (rank, seq).
struct MixProbeBc : algos::BcProgram {
  std::shared_ptr<std::atomic<std::uint64_t>> mixed =
      std::make_shared<std::atomic<std::uint64_t>>(0);

  template <class Ctx>
  struct Probe {
    Ctx& ctx;
    bool sent = false;
    bool broadcast = false;
    std::uint64_t superstep() const { return ctx.superstep(); }
    VertexId vertex_id() const { return ctx.vertex_id(); }
    void wake_at(std::uint64_t at) { ctx.wake_at(at); }
    void charge_state_bytes(std::int64_t delta) { ctx.charge_state_bytes(delta); }
    void aggregate(std::uint64_t key, double value) { ctx.aggregate(key, value); }
    void send(VertexId target, MessageValue m) {
      sent = true;
      ctx.send(target, m);
    }
    void send_to_all_neighbors(const MessageValue& m) {
      broadcast = true;
      ctx.send_to_all_neighbors(m);
    }
  };

  template <class Ctx>
  void compute(Ctx& ctx, VertexValue& v, std::span<const MessageValue> messages) const {
    Probe<Ctx> probe{ctx};
    algos::BcProgram::compute(probe, v, messages);
    if (probe.sent && probe.broadcast) mixed->fetch_add(1, std::memory_order_relaxed);
  }
};

// The pull merge's every input at once: parallel edges (a record delivered
// once per duplicate in-edge), computes that mix pointwise sends with
// broadcasts (overlapping BC swaths: one root's backward sweep beside
// another's forward flood), and senders whose current partition and
// combining domain differ after a migration at every barrier. Forced pull
// must repeat forced push value for value and message for message.
TEST(DirectionOptimization, PullMatchesPushOnMultigraphUnderMigration) {
  const Graph simple = barabasi_albert(300, 3, 107);
  GraphBuilder b(simple.num_vertices());
  b.keep_duplicates();
  std::size_t arcs = 0;
  for (VertexId v = 0; v < simple.num_vertices(); ++v)
    for (const VertexId u : simple.out_neighbors(v)) {
      if (u < v) continue;
      b.add_edge(v, u);
      if (++arcs % 4 == 0) b.add_edge(v, u);  // every fourth edge doubled
      if (arcs % 11 == 0) b.add_edge(u, v);   // and some tripled
    }
  const Graph g = b.build();
  ASSERT_GT(g.num_arcs(), simple.num_arcs());

  ClusterConfig c = eight_partitions_four_vms();
  c.migration.planner = std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05);
  c.migration.period = 1;
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 12; ++r) roots.push_back(r * 23 % 300);
  for (const std::uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    JobOptions o;
    o.roots = roots;
    o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(4),
                                std::make_shared<StaticNInitiation>(2), 0);
    o.parallelism = lanes;
    o.direction.mode = DirectionOptions::Mode::kOff;
    Engine<MixProbeBc> push(g, {}, c, parts);
    const auto base = push.run(o);
    ASSERT_FALSE(base.failed);
    ASSERT_EQ(base.roots_completed, roots.size());
    EXPECT_GT(base.metrics.migrations, 0u);

    o.direction.mode = DirectionOptions::Mode::kAlways;
    MixProbeBc probe;
    Engine<MixProbeBc> pull(g, probe, c, parts);
    const auto r = pull.run(o);
    ASSERT_FALSE(r.failed);
    EXPECT_GT(r.metrics.pull_supersteps, 0u);
    EXPECT_GT(r.metrics.migrations, 0u);
    EXPECT_GT(probe.mixed->load(), 0u) << "no compute mixed send and broadcast";
    EXPECT_EQ(r.metrics.total_messages(), base.metrics.total_messages());
    // Remote bytes are booked against each sender's current partition.
    EXPECT_EQ(r.metrics.total_time, base.metrics.total_time);
    for (std::size_t v = 0; v < r.values.size(); ++v)
      EXPECT_EQ(r.values[v].bc_score, base.values[v].bc_score) << "vertex " << v;
  }
}

/// BcProgram that watches rollbacks: a compute at a superstep below the
/// highest one already run is a replay, and the lowest replayed superstep
/// reads the inboxes a checkpoint restored. It counts, per replayed
/// superstep, the forward messages from neighbors (broadcast records) that
/// compute read.
struct ReplayProbeBc : algos::BcProgram {
  struct Log {
    std::mutex m;
    std::uint64_t highest = 0;
    std::map<std::uint64_t, std::uint64_t> replayed_broadcasts;
  };
  std::shared_ptr<Log> log = std::make_shared<Log>();

  template <class Ctx>
  void compute(Ctx& ctx, VertexValue& v, std::span<const MessageValue> messages) const {
    std::uint64_t broadcasts = 0;
    for (const MessageValue& m : messages)
      if (m.kind == Kind::kForward && m.sender != ctx.vertex_id()) ++broadcasts;
    {
      const std::lock_guard<std::mutex> lock(log->m);
      if (ctx.superstep() < log->highest)
        log->replayed_broadcasts[ctx.superstep()] += broadcasts;
      else
        log->highest = ctx.superstep();
    }
    algos::BcProgram::compute(ctx, v, messages);
  }
};

/// The modeled record without the direction decisions themselves.
JobMetrics without_direction(JobMetrics m) {
  for (SuperstepMetrics& s : m.supersteps) s.pull_mode = false;
  m.pull_supersteps = 0;
  m.direction_switches = 0;
  return m;
}

// Pull inboxes hold references to a superstep's broadcast records. A delta
// checkpoint snapshots them, a worker failure restores them, and a
// migration at every barrier re-homes them; forced pull must still repeat
// forced push value for value and in every modeled metric, at one lane and
// four, with the first replayed superstep reading records from a restored
// pull-superstep inbox.
TEST(DirectionOptimization, ReferenceInboxesSurviveCheckpointFailureAndMigration) {
  const Graph g = barabasi_albert(300, 3, 131);
  ClusterConfig c = eight_partitions_four_vms();
  c.migration.planner = std::make_shared<ActivityGreedyPlanner>(/*tolerance=*/0.05);
  c.migration.period = 1;
  c.checkpoint_interval = 2;
  c.scheduled_failures = {{7, 1}};  // superstep 7, worker 1
  ASSERT_TRUE(c.ckpt.delta_enabled);
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  std::vector<VertexId> roots;
  for (VertexId r = 0; r < 12; ++r) roots.push_back(r * 29 % 300);
  JobOptions o;
  o.roots = roots;
  o.swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(4),
                              std::make_shared<StaticNInitiation>(2), 0);
  o.parallelism = 1;
  o.direction.mode = DirectionOptions::Mode::kOff;
  Engine<ReplayProbeBc> serial_push(g, {}, c, parts);
  const auto base = serial_push.run(o);
  ASSERT_FALSE(base.failed);
  ASSERT_EQ(base.roots_completed, roots.size());
  EXPECT_EQ(base.metrics.pull_supersteps, 0u);

  for (const std::uint32_t lanes : {1u, 4u}) {
    for (const auto mode : {DirectionOptions::Mode::kOff, DirectionOptions::Mode::kAlways}) {
      const bool pull = mode == DirectionOptions::Mode::kAlways;
      SCOPED_TRACE(std::to_string(lanes) + " lanes, " + (pull ? "pull" : "push"));
      o.parallelism = lanes;
      o.direction.mode = mode;
      ReplayProbeBc probe;
      Engine<ReplayProbeBc> e(g, probe, c, parts);
      const auto r = e.run(o);
      ASSERT_FALSE(r.failed);
      EXPECT_GT(r.metrics.worker_failures, 0u);
      EXPECT_GT(r.metrics.replayed_supersteps, 0u);
      EXPECT_GT(r.metrics.checkpoint_deltas, 0u);
      EXPECT_GT(r.metrics.migrations, 0u);
      EXPECT_EQ(r.metrics.pull_supersteps, pull ? r.metrics.total_supersteps() : 0u);
      ASSERT_FALSE(probe.log->replayed_broadcasts.empty()) << "no rollback replayed";
      EXPECT_GT(probe.log->replayed_broadcasts.begin()->second, 0u)
          << "the restored inboxes held no broadcast record";
      for (std::size_t v = 0; v < r.values.size(); ++v)
        EXPECT_EQ(r.values[v].bc_score, base.values[v].bc_score) << "vertex " << v;
      EXPECT_EQ(first_modeled_difference(without_direction(r.metrics),
                                         without_direction(base.metrics)),
                "");
    }
  }
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
