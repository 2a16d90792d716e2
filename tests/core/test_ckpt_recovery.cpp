// Generational checkpoint store, engine-level: a seeded crash or corruption
// at every phase of the checkpoint lifecycle — mid-delta torn leg, torn
// manifest at the publish step, corrupt mid-chain delta, corrupt manifest,
// unreplicated generation under a zone outage, every generation bad — must
// recover bit-identically via the multi-generation fallback walk. Plus the
// delta-vs-full byte/time reduction, scrub visibility, and the distinct
// replica-failure counter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace pregel {
namespace {

using algos::PageRankProgram;
using algos::SsspProgram;
using Kind = cloud::ForcedFault::Kind;

ClusterConfig base_cluster() {
  ClusterConfig c;
  c.num_partitions = 4;
  c.initial_workers = 4;
  return c;
}

// Fault-free PageRank reference for the bit-identity comparisons below.
struct PageRankFixture {
  Graph g = barabasi_albert(300, 3, 5);
  Partitioning parts = HashPartitioner{}.partition(g, 4);
  JobOptions opts;
  std::vector<PageRankProgram::VertexValue> clean;

  PageRankFixture() {
    opts.start_all_vertices = true;
    Engine<PageRankProgram> e(g, {25, 0.85}, base_cluster(), parts);
    clean = e.run(opts).values;
  }

  template <typename Report>
  void expect_exact(const Report& r) const {
    ASSERT_FALSE(r.failed) << r.failure_reason;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_DOUBLE_EQ(r.values[v].rank, clean[v].rank) << v;
  }
};

// Crash point 1: a delta leg lands torn mid-write. The generation still
// publishes (the manifest names the torn blob), but the restore walk detects
// the tear and falls back one generation instead of losing the job.
TEST(CkptRecovery, TornDeltaLegFallsBackOneGeneration) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;               // rounds after supersteps 1, 3, 5...
  c.scheduled_failures = {{2, 1, Kind::kLegTear},  // round 2 = seq 3, partition 1
                          {6, 0}};
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_EQ(r.metrics.worker_failures, 1u);
  EXPECT_GE(r.metrics.checkpoint_torn_legs, 1u);
  EXPECT_GE(r.metrics.checkpoint_corrupt_legs, 1u);
  EXPECT_GE(r.metrics.checkpoint_fallbacks, 1u);
  EXPECT_GE(r.metrics.checkpoint_fallback_depth_max, 1u);
}

// Crash point 2: the crash lands between the data legs and the manifest
// publish. Two-phase atomicity: the round is lost whole, the previous
// generation stays newest, and recovery proceeds from it with no fallback.
TEST(CkptRecovery, TornManifestLosesTheRoundNotTheJob) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  c.scheduled_failures = {{2, 0, Kind::kManifestTear},  // round 2 lost at the publish step
                          {6, 2}};
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_EQ(r.metrics.checkpoint_torn_manifests, 1u);
  EXPECT_GE(r.metrics.checkpoint_failures, 1u);
  // The newest surviving generation resumed at superstep 4, so the failure
  // at superstep 6 replays supersteps 4..6.
  EXPECT_EQ(r.metrics.replayed_supersteps, 3u);
  EXPECT_EQ(r.metrics.checkpoint_fallback_depth_max, 0u);
}

// Crash point 3: at-rest rot of a mid-chain delta poisons every descendant
// delta's restore set — the forced two-generation fallback of the
// acceptance gate.
TEST(CkptRecovery, CorruptMidChainDeltaForcesTwoGenerationFallback) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;               // seq 1 base, seq 2-3 deltas on it
  c.scheduled_failures = {{2, 0, Kind::kLegRot},  // publish serial 2, partition 0
                          {6, 1}};
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_EQ(r.metrics.checkpoint_fallback_depth_max, 2u);
  EXPECT_GE(r.metrics.checkpoint_corrupt_legs, 1u);
  // Landed on the base (resume superstep 2): supersteps 2..6 replay.
  EXPECT_EQ(r.metrics.replayed_supersteps, 5u);
}

// Crash point 4: the manifest itself rots at rest. Chain verification fails
// for that generation and the walk skips it.
TEST(CkptRecovery, CorruptManifestFailsChainVerification) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  c.scheduled_failures = {{3, 0, Kind::kManifestRot},  // newest generation's manifest
                          {6, 3}};
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_GE(r.metrics.checkpoint_corrupt_manifests, 1u);
  EXPECT_GE(r.metrics.checkpoint_fallback_depth_max, 1u);
}

// Worst case: every uploaded generation is bad. Generation 0 — the input
// graph in blob storage — is the incorruptible floor: the job restarts from
// superstep 0 and still finishes exactly. The single-snapshot design this
// store replaced lost the job here.
TEST(CkptRecovery, AllGenerationsCorruptFallsToInputGraph) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  for (std::uint64_t serial = 1; serial <= 12; ++serial)
    c.scheduled_failures.push_back({serial, 0, Kind::kManifestRot});
  c.scheduled_failures.push_back({5, 0});
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  // Two generations existed (after supersteps 1 and 3); both were skipped.
  EXPECT_EQ(r.metrics.checkpoint_fallback_depth_max, 2u);
  EXPECT_EQ(r.metrics.replayed_supersteps, 6u);  // full restart: 0..5
}

// Crash point 5: a zone outage. Legs homed in the lost zone are unreadable
// at the primary; the cross-zone replicas stand in.
TEST(CkptRecovery, ZoneOutageRestoresThroughReplicas) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  c.availability_zones = 2;
  c.scheduled_failures = {{5, 0, Kind::kZoneOutage}};
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_EQ(r.metrics.zone_outages, 1u);
  EXPECT_GE(r.metrics.checkpoint_replicas_written, 2u);
  EXPECT_GE(r.metrics.checkpoint_replica_reads, 1u);
  EXPECT_EQ(r.metrics.checkpoint_fallback_depth_max, 0u);
}

// Crash point 6: the crash window between primary publish and the replica
// round. The generation is visible but unreplicated; under a zone outage
// the walk must skip it (its lost-zone legs have no standby copy) and fall
// back to the older, replicated generation. The abandoned replica round
// lands in its own counter, not in checkpoint_failures.
TEST(CkptRecovery, UnreplicatedGenerationSkippedUnderZoneLoss) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  c.availability_zones = 2;
  c.scheduled_failures = {{1, 0, Kind::kReplicaFailure},  // round 1 = seq 2 publishes bare
                          {5, 0, Kind::kZoneOutage}};
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_EQ(r.metrics.checkpoint_replica_failures, 1u);
  EXPECT_EQ(r.metrics.checkpoint_failures, 0u);
  EXPECT_GE(r.metrics.checkpoint_fallback_depth_max, 1u);
  EXPECT_GE(r.metrics.checkpoint_replica_reads, 1u);
}

// Acceptance gate: delta generations shrink modeled checkpoint bytes and
// time on a frontier algorithm, with values untouched.
TEST(CkptRecovery, DeltaCheckpointsShrinkBytesAndTime) {
  Graph g = watts_strogatz(400, 6, 0.2, 9);
  const auto parts = HashPartitioner{}.partition(g, 4);
  JobOptions o;
  o.roots = {0};

  ClusterConfig full = base_cluster();
  full.checkpoint_interval = 2;
  full.ckpt.delta_enabled = false;
  ClusterConfig delta = full;
  delta.ckpt.delta_enabled = true;

  Engine<SsspProgram> ef(g, {}, full, parts);
  Engine<SsspProgram> ed(g, {}, delta, parts);
  const auto rf = ef.run(o);
  const auto rd = ed.run(o);
  ASSERT_FALSE(rf.failed);
  ASSERT_FALSE(rd.failed);
  EXPECT_EQ(rf.metrics.checkpoint_deltas, 0u);
  EXPECT_GT(rd.metrics.checkpoint_deltas, 0u);
  EXPECT_GE(rd.metrics.checkpoint_bases, 1u);
  const Bytes full_bytes = rf.metrics.checkpoint_base_bytes + rf.metrics.checkpoint_delta_bytes;
  const Bytes delta_bytes = rd.metrics.checkpoint_base_bytes + rd.metrics.checkpoint_delta_bytes;
  EXPECT_LT(delta_bytes, full_bytes);
  EXPECT_LT(rd.metrics.checkpoint_time, rf.metrics.checkpoint_time);
  const auto ref = bfs_distances(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(rd.values[v].distance, ref[v]) << v;
    ASSERT_EQ(rf.values[v].distance, ref[v]) << v;
  }
}

// A long delta run re-bases on the chain bound and retention GC retires the
// generations the newest restore sets no longer need, pricing delete ops.
TEST(CkptRecovery, RetentionGcRetiresOldGenerations) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  c.ckpt.max_chain_length = 2;
  c.ckpt.retained_generations = 2;
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_GE(r.metrics.checkpoint_bases, 2u);  // re-based at least once
  EXPECT_GT(r.metrics.ckpt_gc_generations, 0u);
  EXPECT_GT(r.metrics.ckpt_gc_delete_ops, 0u);
}

// Scrub: rot planted in a generation's leg and manifest is found and
// repaired between barriers, visible in metrics and charged to modeled
// time — and a later restore walks straight through the repaired copies.
TEST(CkptRecovery, ScrubRepairsAreVisibleAndRestoreSucceeds) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  c.ckpt.scrub_period = 2;
  c.scheduled_failures = {{1, 0, Kind::kLegRot},
                          {1, 0, Kind::kManifestRot},
                          {14, 0}};  // long after the scrub repaired seq 1
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_GT(r.metrics.scrub_passes, 0u);
  EXPECT_GT(r.metrics.scrub_copies_verified, 0u);
  EXPECT_GE(r.metrics.scrub_repairs, 2u);  // the leg and the manifest
  EXPECT_GT(r.metrics.scrub_time, 0.0);
  EXPECT_EQ(r.metrics.worker_failures, 1u);
}

// With every checkpoint-store fault rate zero and no scrub findings, the
// store's presence costs nothing extra at the barrier and values match the
// plain-config baseline exactly.
TEST(CkptRecovery, RateDrivenTornWritesStillRecoverExactly) {
  PageRankFixture fx;
  ClusterConfig c = base_cluster();
  c.checkpoint_interval = 2;
  c.faults.ckpt_torn_write_rate = 0.2;
  c.faults.ckpt_rot_rate = 0.05;
  c.scheduled_failures = {{6, 0}, {13, 2}};
  Engine<PageRankProgram> e(fx.g, {25, 0.85}, c, fx.parts);
  const auto r = e.run(fx.opts);
  fx.expect_exact(r);
  EXPECT_EQ(r.metrics.worker_failures, 2u);
  EXPECT_GT(r.metrics.checkpoint_torn_legs, 0u);
}

}  // namespace
}  // namespace pregel
