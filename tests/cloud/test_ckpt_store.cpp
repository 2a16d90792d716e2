// Generational checkpoint store: two-phase publish atomicity, delta/base
// scheduling, the newest-to-oldest restore walk with replica standby and
// multi-generation fallback, retention GC, scrub repair, and the CRC-trailed
// manifest text.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cloud/ckpt_store.hpp"
#include "cloud/faults.hpp"
#include "util/crc32c.hpp"

namespace pregel::cloud {
namespace {

constexpr std::uint32_t kParts = 4;
using Kind = ForcedFault::Kind;

/// A zero-rate injector that fires only `forced`.
FaultInjector forcing(std::vector<ForcedFault> forced) {
  return FaultInjector(FaultPlan{}, std::move(forced));
}

CkptStore make_store(const CkptOptions& opts) {
  CkptStore store;
  store.configure(opts, kParts);
  store.seed_initial(std::make_shared<int>(0));
  return store;
}

std::vector<Bytes> legs(Bytes each) { return std::vector<Bytes>(kParts, each); }
std::vector<std::uint32_t> homes() { return {0, 1, 0, 1}; }
std::vector<std::uint32_t> zones2() { return {0, 1, 0, 1}; }

CkptWriteOutcome publish(CkptStore& store, FaultInjector& faults, Bytes each,
                         std::uint64_t resume, std::uint64_t locv = 0u) {
  const auto out =
      store.write_generation(resume, locv, legs(each), homes(), zones2(), 2, faults);
  if (out.published) store.attach_payload(std::make_shared<std::uint64_t>(resume));
  return out;
}

TEST(CkptOptions, ValidateRejectsZeroBounds) {
  CkptOptions o;
  o.max_chain_length = 0;
  EXPECT_THROW(o.validate(), std::logic_error);
  o = CkptOptions{};
  o.retained_generations = 0;
  EXPECT_THROW(o.validate(), std::logic_error);
  EXPECT_NO_THROW(CkptOptions{}.validate());
}

TEST(CkptStore, SeedInitialIsIdempotentAndFree) {
  CkptStore store = make_store(CkptOptions{});
  EXPECT_TRUE(store.has_checkpoint());
  EXPECT_EQ(store.newest_seq(), 0u);
  store.seed_initial(std::make_shared<int>(1));  // no-op: gen 0 exists
  ASSERT_EQ(store.generations().size(), 1u);
  EXPECT_EQ(*static_cast<const int*>(store.newest_payload()), 0);
  EXPECT_TRUE(store.generations().front().is_base);
}

TEST(CkptStore, FirstUploadIsBaseThenDeltasUntilChainBound) {
  CkptOptions o;
  o.max_chain_length = 2;
  CkptStore store = make_store(o);
  FaultInjector faults;
  EXPECT_TRUE(store.next_is_base(0));
  EXPECT_TRUE(publish(store, faults, 100, 2).is_base);   // base
  EXPECT_FALSE(publish(store, faults, 10, 4).is_base);   // delta 1
  EXPECT_FALSE(publish(store, faults, 10, 6).is_base);   // delta 2 = bound
  EXPECT_TRUE(publish(store, faults, 100, 8).is_base);   // forced re-base
  EXPECT_EQ(store.newest_seq(), 4u);
  EXPECT_EQ(store.newest_resume_superstep(), 8u);
}

TEST(CkptStore, LocationVersionChangeForcesRebase) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults;
  publish(store, faults, 100, 2, /*locv=*/0);
  EXPECT_FALSE(store.next_is_base(0));
  EXPECT_TRUE(store.next_is_base(1));  // migration bumped the location tables
  EXPECT_TRUE(publish(store, faults, 100, 4, /*locv=*/1).is_base);
}

TEST(CkptStore, DeltaDisabledWritesOnlyBases) {
  CkptOptions o;
  o.delta_enabled = false;
  CkptStore store = make_store(o);
  FaultInjector faults;
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_TRUE(publish(store, faults, 100, 2 + 2 * i).is_base);
}

TEST(CkptStore, TornManifestLosesTheRoundAtomically) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults = forcing({{1, 0, Kind::kManifestTear}});  // the second write round
  EXPECT_TRUE(publish(store, faults, 100, 2).published);
  const auto lost = publish(store, faults, 10, 4);
  EXPECT_TRUE(lost.manifest_torn);
  EXPECT_FALSE(lost.published);
  // Nothing half-written became visible: the previous generation is intact
  // and still newest; the lost round's serial is burned, never reused.
  EXPECT_EQ(store.newest_seq(), 1u);
  EXPECT_EQ(store.newest_resume_superstep(), 2u);
  EXPECT_TRUE(publish(store, faults, 10, 6).published);
  EXPECT_EQ(store.newest_seq(), 3u);
}

TEST(CkptStore, RestorePlanPrefersNewestIntactGeneration) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults;
  publish(store, faults, 100, 2);
  publish(store, faults, 10, 4);
  auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 2u);
  EXPECT_EQ(plan->resume_superstep, 4u);
  EXPECT_EQ(plan->fallback_depth, 0u);
  EXPECT_FALSE(plan->initial);
  // Restore set = base + delta: each partition downloads both legs.
  ASSERT_EQ(plan->partition_bytes.size(), kParts);
  for (const Bytes b : plan->partition_bytes) EXPECT_EQ(b, 110u);
  EXPECT_EQ(*static_cast<const std::uint64_t*>(plan->payload.get()), 4u);
}

TEST(CkptStore, TornDeltaLegFallsBackOneGeneration) {
  CkptStore store = make_store(CkptOptions{});
  // Round 1 (first delta), partition 2.
  FaultInjector faults = forcing({{1, 2, Kind::kLegTear}});
  publish(store, faults, 100, 2);
  publish(store, faults, 10, 4);  // newest, but its leg 2 landed torn
  auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 1u);
  EXPECT_EQ(plan->resume_superstep, 2u);
  EXPECT_EQ(plan->fallback_depth, 1u);
  EXPECT_GE(plan->corrupt_legs, 1u);
}

TEST(CkptStore, CorruptMidChainDeltaFailsEveryDescendant) {
  // A rotted delta in the middle of the chain poisons the restore set of
  // every newer delta built on it: the walk falls back two generations.
  CkptOptions o;
  o.max_chain_length = 8;
  CkptStore store = make_store(o);
  // Publish serial 2 = first delta, partition 0.
  FaultInjector faults = forcing({{2, 0, Kind::kLegRot}});
  publish(store, faults, 100, 2);  // seq 1: base
  publish(store, faults, 10, 4);   // seq 2: delta (rotted at rest)
  publish(store, faults, 10, 6);   // seq 3: delta needs seq 2 -> also unusable
  auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 1u);
  EXPECT_EQ(plan->fallback_depth, 2u);
}

TEST(CkptStore, RottedManifestFailsChainVerification) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults = forcing({{2, 0, Kind::kManifestRot}});
  publish(store, faults, 100, 2);
  publish(store, faults, 10, 4);  // seq 2, manifest rots at rest
  auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 1u);
  EXPECT_GE(plan->corrupt_manifests, 1u);
}

TEST(CkptStore, EverythingBadFallsToGenerationZero) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults = forcing({{1, 0, Kind::kManifestRot}});
  publish(store, faults, 100, 2);  // only uploaded generation; manifest rots
  auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->initial);
  EXPECT_EQ(plan->seq, 0u);
  EXPECT_EQ(plan->resume_superstep, 0u);
  EXPECT_EQ(plan->fallback_depth, 1u);
  for (const Bytes b : plan->partition_bytes) EXPECT_EQ(b, 0u);
}

TEST(CkptStore, ZoneLossReadsReplicaOrFallsBack) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults;
  publish(store, faults, 100, 2);
  ASSERT_TRUE(store.complete_replica_round(faults));
  // Zone 0 dark: partitions homed there (0 and 2) read their replicas.
  auto plan = store.plan_restore(0u, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 1u);
  EXPECT_EQ(plan->replica_reads, 2u);

  // Without a replica round the same outage forces generation 0.
  CkptStore bare = make_store(CkptOptions{});
  publish(bare, faults, 100, 2);
  auto fallback = bare.plan_restore(0u, faults);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_TRUE(fallback->initial);
}

TEST(CkptStore, ScheduledReplicaFailureAbandonsTheRound) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults = forcing({{0, 0, Kind::kReplicaFailure}});
  publish(store, faults, 100, 2);
  EXPECT_FALSE(store.complete_replica_round(faults));
  EXPECT_FALSE(store.generations().back().replicated);
}

TEST(CkptStore, TruncateAfterDropsNewerGenerationsAndReschedulesRebase) {
  CkptOptions o;
  o.max_chain_length = 2;
  CkptStore store = make_store(o);
  FaultInjector faults;
  publish(store, faults, 100, 2);  // seq 1: base
  publish(store, faults, 10, 4);   // seq 2: delta
  publish(store, faults, 10, 6);   // seq 3: delta (bound reached)
  store.truncate_after(2);
  EXPECT_EQ(store.newest_seq(), 2u);
  // One delta since the base again: the replay's next round is a delta,
  // then the bound forces the re-base on schedule.
  EXPECT_FALSE(store.next_is_base(0));
  publish(store, faults, 10, 6);
  EXPECT_TRUE(store.next_is_base(0));
}

TEST(CkptStore, RetentionGcKeepsRestoreSetsIntact) {
  CkptOptions o;
  o.max_chain_length = 2;
  o.retained_generations = 2;
  CkptStore store = make_store(o);
  FaultInjector faults;
  publish(store, faults, 100, 2);   // seq 1: base A
  publish(store, faults, 10, 4);    // seq 2: delta on A
  publish(store, faults, 10, 6);    // seq 3: delta on A (bound)
  // Retained = {2, 3}; their base A is still needed, so nothing is deleted.
  EXPECT_EQ(store.generations().size(), 4u);  // gen0 + A + 2 deltas
  const auto rebase = publish(store, faults, 100, 8);  // seq 4: base B
  // Retained = {3, 4}; seq 3's restore set is A -> 2 -> 3, so the whole old
  // chain is still pinned and GC deletes nothing.
  EXPECT_TRUE(rebase.published);
  EXPECT_EQ(rebase.gc_generations, 0u);
  const auto after = publish(store, faults, 10, 10);  // seq 5: delta on B
  // Retained = {4, 5}: base B needs no ancestor, so A and both of its
  // deltas age out together (one delete op per leg plus the manifest).
  EXPECT_EQ(after.gc_generations, 3u);
  EXPECT_EQ(after.gc_delete_ops, 3u * (kParts + 1));
  ASSERT_EQ(store.generations().size(), 3u);  // gen0 + B + delta
  EXPECT_EQ(store.generations()[0].seq, 0u);
  EXPECT_EQ(store.generations()[1].seq, 4u);
  // Every surviving generation still restores.
  auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 5u);
}

TEST(CkptStore, ScrubRepairsRotAndManifests) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults = forcing({{1, 1, Kind::kLegRot}, {1, 0, Kind::kManifestRot}});
  publish(store, faults, 100, 2);
  const auto out = store.scrub(faults);
  EXPECT_EQ(out.repairs, 1u);
  EXPECT_EQ(out.manifest_repairs, 1u);
  EXPECT_EQ(out.repaired_bytes, 100u);
  EXPECT_GT(out.copies_verified, 0u);
  // Repaired copies verify on the next walk and the next scrub finds
  // nothing (the forced rot applies to the pre-repair epoch only).
  const auto again = store.scrub(faults);
  EXPECT_EQ(again.repairs, 0u);
  EXPECT_EQ(again.manifest_repairs, 0u);
  auto plan = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seq, 1u);
  EXPECT_EQ(plan->fallback_depth, 0u);
}

TEST(CkptStore, RateDrawnTornLegsAreDetectedOnRestore) {
  FaultPlan plan;
  plan.ckpt_torn_write_rate = 0.9;  // nearly every write tears
  FaultInjector faults(plan);
  CkptStore store = make_store(CkptOptions{});
  bool any_torn = false;
  for (std::uint64_t i = 0; i < 4; ++i)
    any_torn = publish(store, faults, 100, 2 + 2 * i).torn_legs > 0 || any_torn;
  EXPECT_TRUE(any_torn);
  auto restore = store.plan_restore(std::nullopt, faults);
  ASSERT_TRUE(restore.has_value());  // gen 0 floor at worst
}

TEST(CkptGeneration, ManifestTextCarriesCrcTrailer) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults;
  publish(store, faults, 100, 2);
  const CkptGeneration& gen = store.generations().back();
  const std::string text = gen.manifest_text();
  EXPECT_NE(text.find("pregel-ckpt-manifest-v1 seq=1"), std::string::npos);
  EXPECT_NE(text.find("legs=4"), std::string::npos);
  const std::size_t crc_at = text.rfind("crc=");
  ASSERT_NE(crc_at, std::string::npos);
  // The trailer is the CRC32C of everything before it — recompute and match.
  const std::string body = text.substr(0, crc_at);
  const std::uint32_t crc = util::crc32c(
      std::as_bytes(std::span(body.data(), body.size())));
  EXPECT_EQ(text.substr(crc_at), "crc=" + std::to_string(crc) + "\n");
  EXPECT_EQ(gen.total_bytes(), 400u);
}

TEST(CkptStore, ChainHashLinksParentToChild) {
  CkptStore store = make_store(CkptOptions{});
  FaultInjector faults;
  publish(store, faults, 100, 2);
  publish(store, faults, 10, 4);
  const auto& gens = store.generations();
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_NE(gens[1].chain_hash, 0u);
  EXPECT_NE(gens[2].chain_hash, gens[1].chain_hash);
}

}  // namespace
}  // namespace pregel::cloud
