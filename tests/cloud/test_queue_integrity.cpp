// Control-plane message integrity: CRC32C stamping on queue messages, the
// kQueueCorrupt fault class and its dedicated seed stream.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cloud/faults.hpp"
#include "cloud/queue.hpp"
#include "util/crc32c.hpp"

namespace pregel::cloud {
namespace {

TEST(QueueIntegrity, PutStampsCrcAndRoundTripVerifies) {
  AzureQueue q;
  q.put("active:42");
  const auto m = q.get();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->crc, queue_body_checksum("active:42"));
  EXPECT_TRUE(verify_queue_message(*m));
  q.remove(m->id);
}

TEST(QueueIntegrity, TamperedBodyFailsVerification) {
  QueueMessage m;
  m.body = "step:7";
  m.crc = queue_body_checksum(m.body);
  EXPECT_TRUE(verify_queue_message(m));
  m.body = "step:8";  // bit-flip in flight
  EXPECT_FALSE(verify_queue_message(m));
  m.crc = queue_body_checksum(m.body);  // restamp heals it
  EXPECT_TRUE(verify_queue_message(m));
}

TEST(QueueIntegrity, ChecksumMatchesCrc32cOfBody) {
  const std::string body = "barrier check-in, worker 3, active:1024";
  std::vector<std::byte> bytes(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) bytes[i] = std::byte(body[i]);
  EXPECT_EQ(queue_body_checksum(body), util::crc32c(bytes));
  EXPECT_NE(queue_body_checksum("a"), queue_body_checksum("b"));
}

TEST(QueueIntegrity, ReleasedMessageKeepsItsCrc) {
  AzureQueue q;
  q.put("job:submit");
  const auto first = q.get();
  ASSERT_TRUE(first.has_value());
  q.release(first->id);  // visibility-timeout expiry: message reappears
  const auto second = q.get();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->crc, first->crc);
  EXPECT_TRUE(verify_queue_message(*second));
}

TEST(QueueIntegrity, VisibilityTimeoutRedeliversInArrivalOrder) {
  // A consumer crash between get() and remove() must redeliver the message
  // ahead of younger traffic — Azure releases expired messages back to the
  // head, so the barrier sees the oldest outstanding check-in first.
  AzureQueue q;
  q.put("active:0:1:10");
  q.put("active:1:1:20");
  const auto first = q.get();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->body, "active:0:1:10");
  q.release(first->id);  // crash: never removed
  const auto again = q.get();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->id, first->id);
  EXPECT_EQ(again->body, first->body);
  q.remove(again->id);
  const auto second = q.get();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->body, "active:1:1:20");
  q.remove(second->id);
  EXPECT_EQ(q.visible_count(), 0u);
  EXPECT_EQ(q.inflight_count(), 0u);
}

TEST(QueueIntegrity, ReleaseComposedWithCorruptionProcessesEachMessageOnce) {
  // End-to-end at-least-once consumer: get -> verify/attempt under a high
  // kQueueCorrupt rate -> release on failure and re-read. Every message is
  // processed exactly once, nothing is lost, nothing double-counted.
  FaultPlan plan;
  plan.queue_corruption_rate = 0.6;
  FaultInjector inj(plan);
  RetryPolicy retry;
  retry.max_attempts = 1;  // each corrupted read escalates immediately

  AzureQueue q;
  constexpr int kMessages = 12;
  for (int i = 0; i < kMessages; ++i) q.put("msg:" + std::to_string(i));

  std::vector<bool> processed(std::size_t{kMessages}, false);
  int redeliveries = 0;
  for (int guard = 0; guard < 10'000 && q.visible_count() > 0; ++guard) {
    const auto m = q.get();
    ASSERT_TRUE(m.has_value());
    ASSERT_TRUE(verify_queue_message(*m));  // transport CRC intact...
    const auto out = inj.attempt(FaultKind::kQueueOp, retry, 0.01);
    if (!out.success) {
      // ...but the modeled read corrupted: abandon, let visibility expire.
      q.release(m->id);
      ++redeliveries;
      continue;
    }
    const auto idx = static_cast<std::size_t>(std::stoi(m->body.substr(4)));
    EXPECT_FALSE(processed[idx]) << "double-processed " << m->body;
    processed[idx] = true;
    q.remove(m->id);
  }
  for (std::size_t i = 0; i < processed.size(); ++i)
    EXPECT_TRUE(processed[i]) << "lost msg:" << i;
  EXPECT_GT(redeliveries, 0);  // the fault stream actually exercised the path
  EXPECT_EQ(q.visible_count(), 0u);
  EXPECT_EQ(q.inflight_count(), 0u);
}

TEST(QueueCorruption, ValidateRejectsOutOfRangeRate) {
  FaultPlan plan;
  plan.queue_corruption_rate = 1.0;
  EXPECT_THROW(plan.validate(), std::logic_error);
  plan.queue_corruption_rate = -0.25;
  EXPECT_THROW(plan.validate(), std::logic_error);
  plan.queue_corruption_rate = 0.5;
  EXPECT_NO_THROW(plan.validate());
}

TEST(QueueCorruption, OnlyQueueOpsDrawQueueCorruption) {
  FaultPlan plan;
  plan.queue_corruption_rate = 0.9;
  FaultInjector inj(plan);
  RetryPolicy retry;
  const auto r = inj.attempt(FaultKind::kBlobRead, retry, 0.05);
  const auto w = inj.attempt(FaultKind::kBlobWrite, retry, 0.05);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(w.success);
  EXPECT_EQ(inj.draws(FaultKind::kQueueCorrupt), 0u);
  EXPECT_EQ(inj.draws(FaultKind::kBlobCorrupt), 0u);
}

TEST(QueueCorruption, CorruptionEscalatesToRetriableFailure) {
  FaultPlan plan;
  plan.queue_corruption_rate = 0.9;
  FaultInjector inj(plan);
  RetryPolicy retry;
  retry.max_attempts = 3;
  bool saw_escalation = false;
  for (int i = 0; i < 50 && !saw_escalation; ++i) {
    const auto out = inj.attempt(FaultKind::kQueueOp, retry, 0.05);
    if (out.success) continue;
    saw_escalation = true;
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(out.faults, 3u);
    EXPECT_EQ(out.corruptions, 3u);  // every fault was a checksum failure
    EXPECT_GT(out.extra_latency, 0.0);
  }
  EXPECT_TRUE(saw_escalation);
}

TEST(QueueCorruption, StreamIsIndependentOfBlobCorruption) {
  // The queue plane draws from its own corruption stream, not the blob one:
  // enabling blob corruption must not perturb which queue ops fail, or a
  // chaos schedule would stop being reproducible plane by plane.
  auto queue_pattern = [](double blob_rate) {
    FaultPlan plan;
    plan.queue_corruption_rate = 0.3;
    plan.blob_corruption_rate = blob_rate;
    FaultInjector inj(plan);
    RetryPolicy retry;
    std::vector<std::uint64_t> pattern;
    for (int i = 0; i < 60; ++i) {
      pattern.push_back(inj.attempt(FaultKind::kQueueOp, retry, 0.05).corruptions);
      // Interleave blob reads so the blob stream advances when enabled.
      inj.attempt(FaultKind::kBlobRead, retry, 0.05);
    }
    return pattern;
  };
  EXPECT_EQ(queue_pattern(0.0), queue_pattern(0.45));
}

TEST(QueueCorruption, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.queue_corruption_rate = 0.25;
    plan.seed = seed;
    FaultInjector inj(plan);
    RetryPolicy retry;
    std::vector<std::uint64_t> pattern;
    for (int i = 0; i < 40; ++i)
      pattern.push_back(inj.attempt(FaultKind::kQueueOp, retry, 0.05).corruptions);
    return pattern;
  };
  EXPECT_EQ(run(0xFA00), run(0xFA00));
  EXPECT_NE(run(0xFA00), run(0xBEEF));
}

}  // namespace
}  // namespace pregel::cloud
