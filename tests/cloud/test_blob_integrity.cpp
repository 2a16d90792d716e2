// The kBlobCorrupt fault class, the spill round-trip price, and the
// memory-pressure scaling policy.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cloud/cost_model.hpp"
#include "cloud/elasticity.hpp"
#include "cloud/faults.hpp"

namespace pregel::cloud {
namespace {

TEST(FaultCorruption, ValidateRejectsOutOfRangeRate) {
  FaultPlan plan;
  plan.blob_corruption_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::logic_error);
  plan.blob_corruption_rate = 1.0;  // rates live in [0, 1)
  EXPECT_THROW(plan.validate(), std::logic_error);
  plan.blob_corruption_rate = -0.1;
  EXPECT_THROW(plan.validate(), std::logic_error);
  plan.blob_corruption_rate = 0.5;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultCorruption, ZeroCorruptionRateDrawsNothing) {
  FaultPlan plan;  // all rates zero
  FaultInjector inj(plan);
  RetryPolicy retry;
  for (int i = 0; i < 50; ++i) {
    const auto out = inj.attempt(FaultKind::kBlobRead, retry, 0.05);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.corruptions, 0u);
  }
  EXPECT_EQ(inj.draws(FaultKind::kBlobRead), 0u);
  EXPECT_EQ(inj.draws(FaultKind::kBlobCorrupt), 0u);
}

TEST(FaultCorruption, CorruptionEscalatesToRetriableFailure) {
  FaultPlan plan;
  plan.blob_corruption_rate = 0.9;  // most reads return a bad payload
  FaultInjector inj(plan);
  RetryPolicy retry;
  retry.max_attempts = 3;
  // With p=0.9 per attempt, an op exhausting all three retries on checksum
  // failures shows up quickly (and deterministically, given the fixed seed).
  bool saw_escalation = false;
  for (int i = 0; i < 50 && !saw_escalation; ++i) {
    const auto out = inj.attempt(FaultKind::kBlobRead, retry, 0.05);
    if (out.success) continue;
    saw_escalation = true;
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(out.faults, 3u);
    EXPECT_EQ(out.corruptions, 3u);  // every fault was a checksum failure
    EXPECT_GT(out.extra_latency, 0.0);
  }
  EXPECT_TRUE(saw_escalation);
}

TEST(FaultCorruption, OnlyBlobReadsDrawCorruption) {
  FaultPlan plan;
  plan.blob_corruption_rate = 0.9;
  FaultInjector inj(plan);
  RetryPolicy retry;
  const auto q = inj.attempt(FaultKind::kQueueOp, retry, 0.05);
  const auto w = inj.attempt(FaultKind::kBlobWrite, retry, 0.05);
  EXPECT_TRUE(q.success);
  EXPECT_TRUE(w.success);
  EXPECT_EQ(inj.draws(FaultKind::kBlobCorrupt), 0u);
}

TEST(FaultCorruption, CorruptionFaultsAreDistinguishedFromReadFaults) {
  // Corruption is drawn only on attempts that pass the read-failure check,
  // from its own seeded stream: with no read-failure rate configured, every
  // fault the injector reports is a checksum failure.
  FaultPlan plan;
  plan.blob_corruption_rate = 0.5;
  FaultInjector inj(plan);
  RetryPolicy retry;
  std::uint64_t faults = 0, corruptions = 0;
  for (int i = 0; i < 200; ++i) {
    const auto out = inj.attempt(FaultKind::kBlobRead, retry, 0.05);
    EXPECT_EQ(out.faults, out.corruptions);
    faults += out.faults;
    corruptions += out.corruptions;
  }
  EXPECT_GT(corruptions, 0u);
  EXPECT_EQ(faults, corruptions);
  EXPECT_GT(inj.draws(FaultKind::kBlobCorrupt), 0u);
}

TEST(FaultCorruption, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.blob_corruption_rate = 0.25;
    plan.seed = seed;
    FaultInjector inj(plan);
    RetryPolicy retry;
    std::vector<std::uint64_t> pattern;
    for (int i = 0; i < 40; ++i)
      pattern.push_back(inj.attempt(FaultKind::kBlobRead, retry, 0.05).corruptions);
    return pattern;
  };
  EXPECT_EQ(run(0xFA00), run(0xFA00));
  EXPECT_NE(run(0xFA00), run(0xBEEF));
}

TEST(CostModel, SpillTransferTimeIsRoundTrip) {
  CostModel cost{CostParams{}};
  const VmSpec vm = azure_large_2012();
  EXPECT_EQ(cost.spill_transfer_time(0, vm), 0.0);
  const Bytes mb = 1024 * 1024;
  const double bw_Bps = vm.network_bps * cost.params().network_efficiency / 8.0;
  EXPECT_DOUBLE_EQ(cost.spill_transfer_time(mb, vm),
                   2.0 * static_cast<double>(mb) / bw_Bps);
  // Monotone in bytes.
  EXPECT_LT(cost.spill_transfer_time(mb, vm), cost.spill_transfer_time(4 * mb, vm));
}

TEST(MemoryPressureScaling, HysteresisBetweenLowAndHigh) {
  MemoryPressureScaling policy(4, 8, /*memory_target=*/1000);
  ScalingSignals s;
  s.current_workers = 4;
  s.max_worker_memory = 500;  // 50% of target: stay low
  EXPECT_EQ(policy.decide(s), 4u);
  s.max_worker_memory = 900;  // above the 85% out threshold: scale out
  EXPECT_EQ(policy.decide(s), 8u);
  s.max_worker_memory = 700;  // between in (50%) and out: hold high
  EXPECT_EQ(policy.decide(s), 8u);
  s.max_worker_memory = 400;  // at/below in threshold: scale back in
  EXPECT_EQ(policy.decide(s), 4u);
  s.max_worker_memory = 700;  // between thresholds from below: hold low
  EXPECT_EQ(policy.decide(s), 4u);
}

TEST(MemoryPressureScaling, ValidatesConstruction) {
  EXPECT_THROW(MemoryPressureScaling(0, 8, 1000), std::exception);
  EXPECT_THROW(MemoryPressureScaling(8, 4, 1000), std::exception);
  EXPECT_THROW(MemoryPressureScaling(4, 8, 0), std::exception);
  EXPECT_THROW(MemoryPressureScaling(4, 8, 1000, 0.5, 0.8), std::exception);
  EXPECT_EQ(MemoryPressureScaling(4, 8, 1000).name(), "mem-pressure[50%,85%]:4<->8");
}

}  // namespace
}  // namespace pregel::cloud
