// Engine semantics tests: superstep mechanics, message delivery, activation,
// wakes, aggregates/globals, metrics accounting, memory faults, elasticity.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "cloud/elasticity.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace pregel {
namespace {

ClusterConfig small_cluster(std::uint32_t parts = 4) {
  ClusterConfig c;
  c.num_partitions = parts;
  c.initial_workers = parts;
  return c;
}

// Counts compute invocations and echoes one message along each out-edge for
// a fixed number of supersteps.
struct FloodProgram {
  struct VertexValue {
    std::uint32_t computes = 0;
    std::uint64_t received = 0;
  };
  using MessageValue = std::uint32_t;

  int rounds = 3;

  template <class Ctx>
  void compute(Ctx& ctx, VertexValue& v, std::span<const MessageValue> messages) const {
    ++v.computes;
    v.received += messages.size();
    if (static_cast<int>(ctx.superstep()) < rounds) {
      ctx.send_to_all_neighbors(1);
      ctx.remain_active();
    }
  }
};

TEST(Engine, ValidatesConstruction) {
  Graph g = ring_graph(8);
  const auto parts = HashPartitioner{}.partition(g, 4);
  ClusterConfig bad = small_cluster(4);
  bad.initial_workers = 5;
  EXPECT_THROW((Engine<FloodProgram>(g, {}, bad, parts)), std::logic_error);

  ClusterConfig wrong_parts = small_cluster(8);
  EXPECT_THROW((Engine<FloodProgram>(g, {}, wrong_parts, parts)), std::logic_error);
}

TEST(Engine, ValidatesJobOptions) {
  Graph g = ring_graph(8);
  const auto parts = HashPartitioner{}.partition(g, 4);
  Engine<FloodProgram> e(g, {}, small_cluster(4), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  opts.roots = {1};
  EXPECT_THROW(e.run(opts), std::logic_error);  // both modes at once

  JobOptions no_seed;
  no_seed.roots = {1};  // FloodProgram has no seed_message
  Engine<FloodProgram> e2(g, {}, small_cluster(4), parts);
  EXPECT_THROW(e2.run(no_seed), std::logic_error);

  JobOptions bad_root;
  bad_root.start_all_vertices = false;
  bad_root.roots = {99};
  Engine<FloodProgram> e3(g, {}, small_cluster(4), parts);
  EXPECT_THROW(e3.run(bad_root), std::logic_error);
}

TEST(Engine, FloodRunsExactSuperstepsAndMessages) {
  Graph g = ring_graph(12);
  const auto parts = HashPartitioner{}.partition(g, 4);
  Engine<FloodProgram> e(g, {3}, small_cluster(4), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto r = e.run(opts);

  // Supersteps 0..3 compute; messages sent in 0..2 arrive in 1..3.
  ASSERT_EQ(r.metrics.supersteps.size(), 4u);
  for (const auto& v : r.values) {
    EXPECT_EQ(v.computes, 4u);
    EXPECT_EQ(v.received, 3u * 2u);  // 2 neighbors x 3 rounds
  }
  // Each of 12 vertices sends 2 messages in supersteps 0,1,2.
  EXPECT_EQ(r.metrics.supersteps[0].messages_sent_total(), 24u);
  EXPECT_EQ(r.metrics.supersteps[2].messages_sent_total(), 24u);
  EXPECT_EQ(r.metrics.supersteps[3].messages_sent_total(), 0u);
  EXPECT_EQ(r.metrics.total_messages(), 72u);
  EXPECT_FALSE(r.failed);
}

TEST(Engine, LocalVsRemoteFollowsPartitioning) {
  // Path graph with range partitioning: only the 3 partition-boundary edges
  // carry remote traffic.
  Graph g = path_graph(16);
  const auto parts = RangePartitioner{}.partition(g, 4);
  Engine<FloodProgram> e(g, {1}, small_cluster(4), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto r = e.run(opts);
  // Superstep 0: every arc sends once = 30 messages; 3 cut edges x 2 arcs
  // are remote.
  EXPECT_EQ(r.metrics.supersteps[0].messages_sent_total(), 30u);
  EXPECT_EQ(r.metrics.supersteps[0].messages_sent_remote(), 6u);
}

TEST(Engine, CostAndTimeAccounting) {
  Graph g = ring_graph(16);
  const auto parts = HashPartitioner{}.partition(g, 4);
  Engine<FloodProgram> e(g, {2}, small_cluster(4), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto r = e.run(opts);
  EXPECT_GT(r.metrics.total_time, 0.0);
  EXPECT_GT(r.metrics.setup_time, 0.0);
  EXPECT_GT(r.metrics.cost_usd, 0.0);
  EXPECT_GT(r.metrics.vm_seconds, 0.0);
  // Span >= busy time of the slowest worker + barrier overhead.
  for (const auto& sm : r.metrics.supersteps) {
    Seconds max_busy = 0;
    for (const auto& w : sm.workers) max_busy = std::max(max_busy, w.busy_time());
    EXPECT_GE(sm.span + 1e-12, max_busy + sm.barrier_overhead);
    for (const auto& w : sm.workers) EXPECT_GE(w.barrier_wait, -1e-12);
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  Graph g = barabasi_albert(300, 3, 5);
  const auto parts = HashPartitioner{}.partition(g, 4);
  JobOptions opts;
  opts.start_all_vertices = true;
  Engine<FloodProgram> e1(g, {3}, small_cluster(4), parts);
  Engine<FloodProgram> e2(g, {3}, small_cluster(4), parts);
  const auto r1 = e1.run(opts);
  const auto r2 = e2.run(opts);
  EXPECT_EQ(first_modeled_difference(r1.metrics, r2.metrics), "");
}

// Aggregate/global round trip: vertices sum their degrees; the master
// doubles the sum and broadcasts; vertices verify next superstep.
struct AggregateProgram {
  struct VertexValue {
    double seen_global = -1.0;
  };
  using MessageValue = std::uint8_t;
  static constexpr std::uint64_t kKey = make_key(7, 1);

  template <class Ctx>
  void compute(Ctx& ctx, VertexValue& v, std::span<const MessageValue>) const {
    if (ctx.superstep() == 0) {
      ctx.aggregate(kKey, ctx.out_degree());
      ctx.remain_active();
    } else {
      v.seen_global = ctx.global(kKey, -2.0);
    }
  }

  template <class MCtx>
  void master_compute(MCtx& master) const {
    master.globals().set(kKey, 2.0 * master.aggregates().get(kKey));
  }
};

TEST(Engine, AggregatesReachMasterAndGlobalsReachVertices) {
  Graph g = ring_graph(10);  // total degree 20
  const auto parts = HashPartitioner{}.partition(g, 2);
  Engine<AggregateProgram> e(g, {}, small_cluster(2), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto r = e.run(opts);
  for (const auto& v : r.values) EXPECT_DOUBLE_EQ(v.seen_global, 40.0);
}

// Wake mechanics: vertex 0 wakes itself 3 supersteps ahead.
struct WakeProgram {
  struct VertexValue {
    std::vector<std::uint64_t> wake_steps;
  };
  using MessageValue = std::uint8_t;

  template <class Ctx>
  void compute(Ctx& ctx, VertexValue& v, std::span<const MessageValue>) const {
    v.wake_steps.push_back(ctx.superstep());
    if (ctx.superstep() == 0 && ctx.vertex_id() == 0) ctx.wake_at(3);
  }
};

TEST(Engine, WakeAtActivatesAtExactSuperstep) {
  Graph g = path_graph(4);
  const auto parts = RangePartitioner{}.partition(g, 2);
  Engine<WakeProgram> e(g, {}, small_cluster(2), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto r = e.run(opts);
  EXPECT_EQ(r.values[0].wake_steps, (std::vector<std::uint64_t>{0, 3}));
  EXPECT_EQ(r.values[1].wake_steps, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(r.metrics.supersteps.size(), 4u);  // 0 then idle-free jump to 3
}

struct BadWakeProgram {
  struct VertexValue {};
  using MessageValue = std::uint8_t;
  template <class Ctx>
  void compute(Ctx& ctx, VertexValue&, std::span<const MessageValue>) const {
    ctx.wake_at(ctx.superstep());  // not in the future
  }
};

TEST(Engine, WakeAtRejectsPastSuperstep) {
  using BadWake = BadWakeProgram;
  Graph g = path_graph(2);
  const auto parts = RangePartitioner{}.partition(g, 1);
  ClusterConfig c = small_cluster(1);
  Engine<BadWake> e(g, {}, c, parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  EXPECT_THROW(e.run(opts), std::logic_error);
}

struct ForeverProgram {
  struct VertexValue {};
  using MessageValue = std::uint8_t;
  template <class Ctx>
  void compute(Ctx& ctx, VertexValue&, std::span<const MessageValue>) const {
    ctx.remain_active();
  }
};

TEST(Engine, MaxSuperstepsBoundsRunaway) {
  using Forever = ForeverProgram;
  Graph g = path_graph(2);
  const auto parts = RangePartitioner{}.partition(g, 1);
  Engine<Forever> e(g, {}, small_cluster(1), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  opts.max_supersteps = 10;
  const auto r = e.run(opts);
  EXPECT_EQ(r.metrics.supersteps.size(), 10u);
}

// Memory fault: a program that buffers an enormous modeled state.
struct HogProgram {
  struct VertexValue {};
  using MessageValue = std::uint8_t;
  template <class Ctx>
  void compute(Ctx& ctx, VertexValue&, std::span<const MessageValue>) const {
    if (ctx.superstep() == 0) {
      ctx.charge_state_bytes(static_cast<std::int64_t>(100) << 30);  // 100 GiB
      ctx.remain_active();
    }
  }
};

TEST(Engine, VmRestartThrowsJobFailure) {
  Graph g = path_graph(4);
  const auto parts = RangePartitioner{}.partition(g, 2);
  Engine<HogProgram> e(g, {}, small_cluster(2), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  EXPECT_THROW(e.run(opts), JobFailure);
}

TEST(Engine, VmRestartRecordedWhenNotFatal) {
  Graph g = path_graph(4);
  const auto parts = RangePartitioner{}.partition(g, 2);
  Engine<HogProgram> e(g, {}, small_cluster(2), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  opts.fail_on_vm_restart = false;
  const auto r = e.run(opts);
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure_reason.find("restarted"), std::string::npos);
}

struct MildHogProgram {
  struct VertexValue {};
  using MessageValue = std::uint8_t;
  template <class Ctx>
  void compute(Ctx& ctx, VertexValue&, std::span<const MessageValue>) const {
    if (ctx.superstep() == 0) {
      // ~8 GiB on a 7 GiB VM: thrash but below the 1.5x restart threshold.
      if (ctx.vertex_id() == 0) ctx.charge_state_bytes(std::int64_t{8} << 30);
      ctx.send_to_all_neighbors(1);
      ctx.remain_active();
    }
  }
};

TEST(Engine, ThrashPenaltySlowsOverloadedWorker) {
  using MildHog = MildHogProgram;
  Graph g = path_graph(4);
  const auto parts = RangePartitioner{}.partition(g, 2);
  Engine<MildHog> hog(g, {}, small_cluster(2), parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto r = hog.run(opts);
  ASSERT_FALSE(r.failed);
  const auto& workers = r.metrics.supersteps[0].workers;
  // Partition 0 (vertices 0,1) lives on worker 0 and thrashes: 8 GiB on a
  // 7 GiB VM -> penalty 1 + slope*(8/7 - 1); both workers otherwise do
  // identical work.
  const double expected = 1.0 + cloud::CostParams{}.vm_thrash_slope * (8.0 / 7.0 - 1.0);
  EXPECT_NEAR(workers[0].compute_time / workers[1].compute_time, expected, 0.05);
}

// Policy that forces a given worker count from the first barrier onward.
class ForceWorkers final : public cloud::ScalingPolicy {
 public:
  explicit ForceWorkers(std::uint32_t w) : w_(w) {}
  std::uint32_t decide(const cloud::ScalingSignals&) override { return w_; }
  std::string name() const override { return "force"; }

 private:
  std::uint32_t w_;
};

TEST(Engine, ElasticScalingChangesWorkerCount) {
  Graph g = ring_graph(32);
  const auto parts = HashPartitioner{}.partition(g, 8);
  ClusterConfig c = small_cluster(8);
  c.initial_workers = 8;
  c.scaling = std::make_shared<ForceWorkers>(4);
  Engine<FloodProgram> e(g, {4}, c, parts);
  JobOptions opts;
  opts.start_all_vertices = true;
  const auto r = e.run(opts);
  ASSERT_GE(r.metrics.supersteps.size(), 3u);
  EXPECT_EQ(r.metrics.supersteps[0].active_workers, 8u);  // initial
  EXPECT_EQ(r.metrics.supersteps[1].active_workers, 4u);  // scaled in
  EXPECT_EQ(r.metrics.supersteps[1].workers.size(), 4u);
}

TEST(Engine, ScaleEventCostChargedOnce) {
  Graph g = ring_graph(16);
  const auto parts = HashPartitioner{}.partition(g, 4);
  ClusterConfig with_cost = small_cluster(4);
  with_cost.scaling = std::make_shared<ForceWorkers>(2);
  with_cost.scale_event_cost = 100.0;
  ClusterConfig without = with_cost;
  without.scale_event_cost = 0.0;
  JobOptions opts;
  opts.start_all_vertices = true;
  Engine<FloodProgram> e1(g, {4}, with_cost, parts);
  Engine<FloodProgram> e2(g, {4}, without, parts);
  const auto r1 = e1.run(opts);
  const auto r2 = e2.run(opts);
  // One scale event 8->... 4->2 at first barrier only (policy constant after).
  EXPECT_NEAR(r1.metrics.total_time - r2.metrics.total_time, 100.0, 1e-6);
}

TEST(Engine, TenancyNoiseSlowsButStaysDeterministic) {
  Graph g = ring_graph(64);
  const auto parts = HashPartitioner{}.partition(g, 4);
  ClusterConfig noisy = small_cluster(4);
  noisy.faults.tenancy_sigma = 0.3;
  JobOptions opts;
  opts.start_all_vertices = true;
  Engine<FloodProgram> quiet_e(g, {3}, small_cluster(4), parts);
  Engine<FloodProgram> noisy_e1(g, {3}, noisy, parts);
  Engine<FloodProgram> noisy_e2(g, {3}, noisy, parts);
  const auto rq = quiet_e.run(opts);
  const auto rn1 = noisy_e1.run(opts);
  const auto rn2 = noisy_e2.run(opts);
  EXPECT_GT(rn1.metrics.total_time, rq.metrics.total_time);
  EXPECT_EQ(first_modeled_difference(rn1.metrics, rn2.metrics), "");
}

}  // namespace
}  // namespace pregel
