// Control-plane fallibility: job-manager failover, the at-least-once barrier
// protocol, and correlated (availability-zone) failure domains. The invariant
// throughout: control-plane faults change modeled time and cost, never the
// answers.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "algos/pagerank.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace pregel {
namespace {

using algos::PageRankProgram;

ClusterConfig base_cluster() {
  ClusterConfig c;
  c.num_partitions = 4;
  c.initial_workers = 4;
  return c;
}

auto run_pagerank(const Graph& g, const Partitioning& parts,
                  const ClusterConfig& c, int iters = 20) {
  Engine<PageRankProgram> e(g, {iters, 0.85}, c, parts);
  JobOptions o;
  o.start_all_vertices = true;
  return e.run(o);
}

double total_barrier_overhead(const JobMetrics& m) {
  double t = 0.0;
  for (const auto& sm : m.supersteps) t += sm.barrier_overhead;
  return t;
}

TEST(ControlPlane, ManagerFailoverIsBitIdenticalAndChargedToBarrier) {
  Graph g = barabasi_albert(300, 3, 5);
  const auto parts = HashPartitioner{}.partition(g, 4);

  const auto clean = run_pagerank(g, parts, base_cluster());

  ClusterConfig fallible = base_cluster();
  fallible.faults.manager_preemption_rate = 0.15;
  const auto survived = run_pagerank(g, parts, fallible);

  ASSERT_FALSE(survived.failed);
  EXPECT_GE(survived.metrics.manager_failovers, 1u);
  EXPECT_GT(survived.metrics.manager_failover_time, 0.0);
  EXPECT_EQ(survived.metrics.worker_failures, 0u);  // workers never died
  // Lease detection + takeover + manifest reload is charged to the barrier
  // at which the primary died, and flows through to makespan and cost.
  EXPECT_GT(total_barrier_overhead(survived.metrics),
            total_barrier_overhead(clean.metrics));
  EXPECT_GT(survived.metrics.total_time, clean.metrics.total_time);
  EXPECT_GT(survived.metrics.cost_usd, clean.metrics.cost_usd);
  // The standby resumed from the manifest: same supersteps, same answers.
  EXPECT_EQ(survived.metrics.total_supersteps(), clean.metrics.total_supersteps());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(survived.values[v].rank, clean.values[v].rank) << v;
}

TEST(ControlPlane, ManagerFailoverRestoresAggregatorsMidSwath) {
  // Aggregator state (PageRank's convergence residual rides the aggregator
  // plane) must round-trip through the persisted manifest bit-exactly even
  // when the failover lands mid-job — a stale manifest would change which
  // superstep the job converges at.
  Graph g = watts_strogatz(200, 4, 0.2, 11);
  const auto parts = HashPartitioner{}.partition(g, 4);
  const auto clean = run_pagerank(g, parts, base_cluster(), 30);

  ClusterConfig fallible = base_cluster();
  fallible.faults.manager_preemption_rate = 0.25;
  fallible.faults.seed = 0x51ee2;  // manager stream draws from seed + 7
  const auto survived = run_pagerank(g, parts, fallible, 30);

  ASSERT_FALSE(survived.failed);
  EXPECT_GE(survived.metrics.manager_failovers, 2u);
  EXPECT_EQ(survived.metrics.total_supersteps(), clean.metrics.total_supersteps());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(survived.values[v].rank, clean.values[v].rank) << v;
}

TEST(ControlPlane, DuplicateBarrierDeliveriesAreDedupedBitIdentically) {
  Graph g = barabasi_albert(250, 3, 13);
  const auto parts = HashPartitioner{}.partition(g, 4);

  const auto clean = run_pagerank(g, parts, base_cluster());

  ClusterConfig lossy = base_cluster();
  lossy.faults.queue_duplicate_rate = 0.3;  // lost remove() -> redelivery
  const auto deduped = run_pagerank(g, parts, lossy);

  ASSERT_FALSE(deduped.failed);
  EXPECT_GE(deduped.metrics.barrier_duplicates, 1u);
  // Every redelivered check-in costs a real queue read before the dedupe.
  EXPECT_GT(deduped.metrics.control_queue_ops, clean.metrics.control_queue_ops);
  EXPECT_GT(deduped.metrics.total_time, clean.metrics.total_time);
  EXPECT_EQ(deduped.metrics.worker_failures, 0u);
  EXPECT_EQ(deduped.metrics.barrier_detection_timeouts, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(deduped.values[v].rank, clean.values[v].rank) << v;
}

TEST(ControlPlane, ZoneOutageConfinedRecoveryReproducesExactPageRank) {
  Graph g = barabasi_albert(300, 3, 5);
  const auto parts = HashPartitioner{}.partition(g, 4);
  const auto clean = run_pagerank(g, parts, base_cluster(), 25);

  ClusterConfig zoned = base_cluster();
  zoned.availability_zones = 2;  // VMs {0,2} in zone 0, {1,3} in zone 1
  zoned.checkpoint_interval = 4;
  zoned.recovery_mode = RecoveryMode::kConfined;
  zoned.faults.zone_outage_rate = 0.05;
  const auto recovered = run_pagerank(g, parts, zoned, 25);

  ASSERT_FALSE(recovered.failed);
  EXPECT_GE(recovered.metrics.zone_outages, 1u);
  // A zone outage kills every VM in the domain at once.
  EXPECT_GE(recovered.metrics.worker_failures, 2u);
  EXPECT_EQ(recovered.metrics.worker_failures % 2, 0u);
  EXPECT_GT(recovered.metrics.recovery_time, 0.0);
  EXPECT_GT(recovered.metrics.confined_replay_time, 0.0);
  // Cross-zone replicas made the lost checkpoints readable.
  EXPECT_GT(recovered.metrics.checkpoint_replicas_written, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(recovered.values[v].rank, clean.values[v].rank) << v;
}

TEST(ControlPlane, ZoneOutageFullRollbackAlsoRecovers) {
  Graph g = barabasi_albert(300, 3, 5);
  const auto parts = HashPartitioner{}.partition(g, 4);
  const auto clean = run_pagerank(g, parts, base_cluster(), 25);

  ClusterConfig zoned = base_cluster();
  zoned.availability_zones = 2;
  zoned.checkpoint_interval = 4;
  zoned.faults.zone_outage_rate = 0.05;
  const auto recovered = run_pagerank(g, parts, zoned, 25);

  ASSERT_FALSE(recovered.failed);
  EXPECT_GE(recovered.metrics.zone_outages, 1u);
  EXPECT_GT(recovered.metrics.replayed_supersteps, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(recovered.values[v].rank, clean.values[v].rank) << v;
}

TEST(ControlPlane, ZoneOutageWithoutReplicasLosesJob) {
  Graph g = ring_graph(64);
  const auto parts = HashPartitioner{}.partition(g, 4);
  ClusterConfig c = base_cluster();
  c.availability_zones = 2;
  c.checkpoint_interval = 2;
  c.replicate_checkpoints_across_zones = false;  // the checkpoints died with the zone
  c.faults.zone_outage_rate = 0.2;
  const auto r = run_pagerank(g, parts, c, 30);
  ASSERT_TRUE(r.failed);
  EXPECT_NE(r.failure_reason.find("no cross-zone replicas"), std::string::npos)
      << r.failure_reason;
  EXPECT_GE(r.metrics.zone_outages, 1u);
  EXPECT_EQ(r.metrics.checkpoint_replicas_written, 0u);
}

TEST(ControlPlane, CrossZoneReplicationCostsTimeNotAnswers) {
  Graph g = barabasi_albert(250, 3, 29);
  const auto parts = HashPartitioner{}.partition(g, 4);

  ClusterConfig single = base_cluster();
  single.checkpoint_interval = 4;
  const auto rs = run_pagerank(g, parts, single);

  ClusterConfig zoned = single;
  zoned.availability_zones = 3;  // replicas on, no outage stream
  const auto rz = run_pagerank(g, parts, zoned);

  ASSERT_FALSE(rz.failed);
  EXPECT_EQ(rz.metrics.checkpoints_written, rs.metrics.checkpoints_written);
  EXPECT_EQ(rz.metrics.checkpoint_replicas_written,
            rs.metrics.checkpoints_written * 4);  // one replica per worker
  EXPECT_GT(rz.metrics.checkpoint_time, rs.metrics.checkpoint_time);
  EXPECT_GT(rz.metrics.total_time, rs.metrics.total_time);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(rz.values[v].rank, rs.values[v].rank) << v;
}

TEST(ControlPlane, ZeroRateControlKnobsAreBitIdenticalToBaseline) {
  // Arming the control-plane fault machinery (zones declared, failover
  // latencies tuned, every new rate zero) must cost exactly nothing:
  // same times, same cost, same queue-op count, same values.
  Graph g = barabasi_albert(250, 3, 29);
  const auto parts = HashPartitioner{}.partition(g, 4);

  ClusterConfig baseline = base_cluster();
  baseline.checkpoint_interval = 4;
  const auto rb = run_pagerank(g, parts, baseline);

  ClusterConfig armed = baseline;
  armed.manager_lease_timeout = 99.0;   // consulted only on failover
  armed.manager_takeover_time = 42.0;
  armed.replicate_checkpoints_across_zones = true;  // moot with one zone
  armed.faults.manager_preemption_rate = 0.0;
  armed.faults.zone_outage_rate = 0.0;
  armed.faults.queue_duplicate_rate = 0.0;
  const auto ra = run_pagerank(g, parts, armed);

  EXPECT_EQ(first_modeled_difference(ra.metrics, rb.metrics), "");
  EXPECT_EQ(ra.metrics.manager_failovers, 0u);
  EXPECT_EQ(ra.metrics.barrier_duplicates, 0u);
  EXPECT_EQ(ra.metrics.barrier_fenced, 0u);
  EXPECT_EQ(ra.metrics.zone_outages, 0u);
  EXPECT_EQ(ra.metrics.checkpoint_replicas_written, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(ra.values[v].rank, rb.values[v].rank) << v;
}

TEST(ControlPlane, ManagerAndZoneFaultsComposeWithWorkerPreemptions) {
  // The full gauntlet: spot preemptions, a fallible manager, duplicated
  // barrier traffic, and a zone outage in one run — still bit-identical.
  Graph g = barabasi_albert(300, 3, 5);
  const auto parts = HashPartitioner{}.partition(g, 4);
  const auto clean = run_pagerank(g, parts, base_cluster(), 25);

  ClusterConfig gauntlet = base_cluster();
  gauntlet.availability_zones = 2;
  gauntlet.checkpoint_interval = 3;
  gauntlet.recovery_mode = RecoveryMode::kConfined;
  gauntlet.faults.vm_preemption_rate = 0.01;
  gauntlet.faults.manager_preemption_rate = 0.08;
  gauntlet.faults.queue_duplicate_rate = 0.1;
  gauntlet.faults.zone_outage_rate = 0.02;
  const auto r = run_pagerank(g, parts, gauntlet, 25);

  ASSERT_FALSE(r.failed);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(r.values[v].rank, clean.values[v].rank) << v;
}

TEST(ControlPlane, ZoneSpreadPlacementKeepsResultsAndSpansZones) {
  // Overdecomposed partitions with the zone-aware placement policy: the
  // placement changes which VM hosts what (time/cost), never the answers.
  Graph g = barabasi_albert(300, 3, 5);
  const auto parts = HashPartitioner{}.partition(g, 8);

  ClusterConfig plain;
  plain.num_partitions = 8;
  plain.initial_workers = 4;
  const auto rp = run_pagerank(g, parts, plain);

  ClusterConfig zoned = plain;
  zoned.availability_zones = 2;
  zoned.placement = std::make_shared<cloud::GreedyRebalancePlacement>();
  const auto rz = run_pagerank(g, parts, zoned);

  ASSERT_FALSE(rz.failed);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_DOUBLE_EQ(rz.values[v].rank, rp.values[v].rank) << v;
}

}  // namespace
}  // namespace pregel
