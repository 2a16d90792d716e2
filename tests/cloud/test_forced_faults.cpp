// Forced faults: the one list of exact crash points (worker deaths, zone
// outages, checkpoint tears, replica failures, at-rest rot) that the
// FaultInjector consults before its rate streams.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cloud/ckpt_store.hpp"
#include "cloud/faults.hpp"

namespace pregel::cloud {
namespace {

using Kind = ForcedFault::Kind;
constexpr std::uint32_t kParts = 4;

TEST(ForcedFault, SuperstepAndVmAloneIsAWorkerDeath) {
  const ForcedFault f{5, 1};
  EXPECT_EQ(f.at, 5u);
  EXPECT_EQ(f.target, 1u);
  EXPECT_EQ(f.kind, Kind::kWorkerDeath);
}

TEST(ForcedFault, ForcedTearSkipsTheTornWriteDraw) {
  FaultPlan plan;
  plan.ckpt_torn_write_rate = 0.5;
  FaultInjector faults(plan, {{3, 1, Kind::kLegTear}, {3, 0, Kind::kManifestTear}});
  EXPECT_TRUE(faults.ckpt_torn(3, 1));
  EXPECT_TRUE(faults.ckpt_torn(3, kCkptManifestPartition));
  EXPECT_EQ(faults.draws(FaultKind::kCkptTornWrite), 0u);
  // Any other write draws as usual: another partition, another round.
  faults.ckpt_torn(3, 0);
  faults.ckpt_torn(4, 1);
  EXPECT_EQ(faults.draws(FaultKind::kCkptTornWrite), 2u);

  // Through the store: a round with one forced leg tear draws for the
  // other legs and the manifest only.
  CkptStore store;
  store.configure(CkptOptions{}, kParts);
  store.seed_initial(std::make_shared<int>(0));
  FaultInjector round_faults(plan, {{0, 2, Kind::kLegTear}});
  const std::vector<Bytes> legs(kParts, 100);
  const std::vector<std::uint32_t> homes(kParts, 0);
  const auto out = store.write_generation(2, 0, legs, homes, homes, 1, round_faults);
  EXPECT_GE(out.torn_legs, 1u);
  EXPECT_EQ(round_faults.draws(FaultKind::kCkptTornWrite), kParts);  // 3 legs + manifest
}

TEST(ForcedFault, WorkerDeathFiresOnceNotOnTheReplayedSuperstep) {
  FaultInjector faults(FaultPlan{}, {{5, 1}});
  EXPECT_EQ(faults.worker_death(4, 0, 4), std::nullopt);
  EXPECT_EQ(faults.worker_death(5, 0, 4), std::optional<std::uint32_t>(1));
  // The rollback replays superstep 5 under the next recovery epoch: the
  // forced death was consumed and does not fire again.
  EXPECT_EQ(faults.worker_death(5, 1, 4), std::nullopt);
  EXPECT_EQ(faults.worker_death(5, 0, 4), std::nullopt);
}

TEST(ForcedFault, ZoneOutageFiresOnceAndOutOfRangeTargetsNever) {
  FaultInjector faults(FaultPlan{}, {{5, 0, Kind::kZoneOutage}, {6, 3, Kind::kZoneOutage}, {7, 9}});
  EXPECT_EQ(faults.zone_outage_at(5, 0, 2), std::optional<std::uint32_t>(0));
  EXPECT_EQ(faults.zone_outage_at(5, 1, 2), std::nullopt);
  EXPECT_EQ(faults.zone_outage_at(6, 0, 2), std::nullopt);  // zone 3 of 2
  EXPECT_EQ(faults.worker_death(7, 0, 4), std::nullopt);    // VM 9 of 4
  // A worker death is not a zone outage, and vice versa.
  EXPECT_EQ(faults.zone_outage_at(7, 0, 16), std::nullopt);
}

TEST(ForcedFault, ForcedRotStopsAfterAScrubRepair) {
  FaultInjector faults(FaultPlan{}, {{1, 2, Kind::kLegRot}, {1, 0, Kind::kManifestRot}});
  // Forced rot hits the primary leg and the manifest at repair epoch 0
  // only; the replica copy and other partitions stay clean.
  EXPECT_TRUE(faults.ckpt_rot(1, 2, 0, 0));
  EXPECT_FALSE(faults.ckpt_rot(1, 2, 1, 0));
  EXPECT_FALSE(faults.ckpt_rot(1, 1, 0, 0));
  EXPECT_FALSE(faults.ckpt_rot(1, 2, 0, 1));
  EXPECT_TRUE(faults.ckpt_rot(1, kCkptManifestPartition, kCkptManifestCopy, 0));
  EXPECT_FALSE(faults.ckpt_rot(1, kCkptManifestPartition, kCkptManifestCopy, 1));

  CkptStore store;
  store.configure(CkptOptions{}, kParts);
  store.seed_initial(std::make_shared<int>(0));
  const std::vector<Bytes> legs(kParts, 100);
  const std::vector<std::uint32_t> homes(kParts, 0);
  ASSERT_TRUE(store.write_generation(2, 0, legs, homes, homes, 1, faults).published);
  const auto first = store.scrub(faults);
  EXPECT_EQ(first.repairs, 1u);
  EXPECT_EQ(first.manifest_repairs, 1u);
  const auto second = store.scrub(faults);
  EXPECT_EQ(second.repairs, 0u);
  EXPECT_EQ(second.manifest_repairs, 0u);
  const auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 1u);
  EXPECT_EQ(plan->fallback_depth, 0u);
}

TEST(ForcedFault, ReplicaFailureIsKeyedByRound) {
  const FaultInjector faults(FaultPlan{}, {{2, 0, Kind::kReplicaFailure}});
  EXPECT_FALSE(faults.replica_round_fails(1));
  EXPECT_TRUE(faults.replica_round_fails(2));
  EXPECT_TRUE(faults.replica_round_fails(2));  // a lookup, not consumed
}

}  // namespace
}  // namespace pregel::cloud
