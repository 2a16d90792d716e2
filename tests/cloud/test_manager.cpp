// Control-plane hardening: the identified, epoch-fenced barrier protocol,
// the idempotent barrier drain, the CRC-verified manager manifest, the
// JobManager failover state machine, and the RetryPolicy op_deadline edge
// cases it all leans on.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/faults.hpp"
#include "cloud/manager.hpp"
#include "cloud/queue.hpp"

namespace pregel::cloud {
namespace {

// ---------------------------------------------------------------------------
// Message formats.

TEST(CheckinFormat, RoundTripsIdentityEpochAndCount) {
  const std::string body = make_checkin(7, 3, 1024);
  EXPECT_EQ(body, "active:7:3:1024");
  const auto c = parse_checkin(body);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->worker, 7u);
  EXPECT_EQ(c->epoch, 3u);
  EXPECT_EQ(c->active, 1024u);
}

TEST(CheckinFormat, RejectsEveryMalformedShape) {
  // The anonymous legacy format, truncations, non-numeric fields, trailing
  // garbage, extra fields, and empty fields must all be rejected — a
  // malformed check-in read as zero would silently corrupt the barrier tally.
  const char* bad[] = {
      "active:42",            // legacy anonymous format: no identity, no epoch
      "active:7:3",           // missing count
      "active:7",             // missing epoch and count
      "active:",              // nothing at all
      "active:7:3:1024:9",    // extra field
      "active:7:3:10x4",      // trailing garbage in count
      "active:x:3:1024",      // non-numeric worker
      "active:7::1024",       // empty epoch
      "active:-1:3:1024",     // negative worker
      "Active:7:3:1024",      // wrong prefix case
      "step:7:3:1024",        // wrong prefix
      "",                     // empty body
      "active:99999999999:0:1",  // worker id overflows uint32
  };
  for (const char* body : bad)
    EXPECT_FALSE(parse_checkin(body).has_value()) << "accepted: '" << body << "'";
}

TEST(StepTokenFormat, RoundTripsAndRejectsMalformed) {
  const std::string body = make_step_token(12, 4);
  EXPECT_EQ(body, "superstep:12:4");
  const auto t = parse_step_token(body);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->superstep, 12u);
  EXPECT_EQ(t->epoch, 4u);
  for (const char* bad : {"superstep:12", "superstep:12:4:9", "superstep:12:",
                          "superstep:a:4", "superstep:", "active:12:4", ""})
    EXPECT_FALSE(parse_step_token(bad).has_value()) << "accepted: '" << bad << "'";
}

// ---------------------------------------------------------------------------
// Barrier drain: dedupe, fencing, detection of missing workers.

TEST(BarrierDrain, TalliesEveryWorkerExactlyOnce) {
  AzureQueue q;
  for (std::uint32_t w = 0; w < 4; ++w) q.put(make_checkin(w, 1, 10 * (w + 1)));
  std::uint64_t ops = 0;
  const auto s = drain_barrier(q, 4, 1, [&](std::uint32_t) { ++ops; });
  EXPECT_EQ(s.checked_in, 4u);
  EXPECT_EQ(s.active_total, 10u + 20u + 30u + 40u);
  EXPECT_EQ(s.duplicates, 0u);
  EXPECT_EQ(s.fenced, 0u);
  EXPECT_EQ(s.malformed, 0u);
  EXPECT_TRUE(s.missing.empty());
  // One get + one remove per worker, exactly like the pre-identity barrier
  // loop — the protocol upgrade costs nothing on the clean path.
  EXPECT_EQ(ops, 8u);
  EXPECT_EQ(q.visible_count(), 0u);
  EXPECT_EQ(q.inflight_count(), 0u);
}

TEST(BarrierDrain, DedupesRedeliveredCheckin) {
  AzureQueue q;
  q.put(make_checkin(0, 2, 100));
  q.put(make_checkin(0, 2, 100));  // the queue redelivered worker 0's check-in
  q.put(make_checkin(1, 2, 50));
  const auto s = drain_barrier(q, 2, 2);
  EXPECT_EQ(s.checked_in, 2u);
  EXPECT_EQ(s.active_total, 150u);  // 100 counted once, not twice
  EXPECT_EQ(s.duplicates, 1u);
  EXPECT_TRUE(s.missing.empty());
  EXPECT_EQ(q.visible_count(), 0u);
}

TEST(BarrierDrain, FencesStaleEpochFromZombieWorker) {
  AzureQueue q;
  q.put(make_checkin(0, 1, 999));  // zombie: pre-failover epoch
  q.put(make_checkin(0, 2, 10));
  q.put(make_checkin(1, 2, 20));
  const auto s = drain_barrier(q, 2, 2);
  EXPECT_EQ(s.checked_in, 2u);
  EXPECT_EQ(s.active_total, 30u);  // the stale 999 never enters the tally
  EXPECT_EQ(s.fenced, 1u);
  EXPECT_EQ(s.duplicates, 0u);
  EXPECT_TRUE(s.missing.empty());
  EXPECT_EQ(q.visible_count(), 0u);
}

TEST(BarrierDrain, MissingWorkerReportedNotAsserted) {
  AzureQueue q;
  q.put(make_checkin(0, 1, 5));
  q.put(make_checkin(2, 1, 7));
  const auto s = drain_barrier(q, 3, 1);  // worker 1 never checked in
  EXPECT_EQ(s.checked_in, 2u);
  EXPECT_EQ(s.active_total, 12u);
  ASSERT_EQ(s.missing.size(), 1u);
  EXPECT_EQ(s.missing.front(), 1u);
}

TEST(BarrierDrain, MalformedAndOutOfRangeBodiesAreDropped) {
  AzureQueue q;
  q.put("active:garbage");
  q.put(make_checkin(9, 1, 4));  // sender id beyond the fleet
  q.put(make_checkin(0, 1, 11));
  const auto s = drain_barrier(q, 1, 1);
  EXPECT_EQ(s.checked_in, 1u);
  EXPECT_EQ(s.active_total, 11u);
  EXPECT_EQ(s.malformed, 2u);
  EXPECT_TRUE(s.missing.empty());
  EXPECT_EQ(q.visible_count(), 0u);
}

TEST(BarrierDrain, LostRemoveRedeliversAndIsDeduped) {
  // Every first-time tally loses its remove(): each message redelivers once,
  // is classified as a duplicate, and the tally still counts each worker once.
  AzureQueue q;
  for (std::uint32_t w = 0; w < 3; ++w) q.put(make_checkin(w, 1, w + 1));
  const auto s = drain_barrier(q, 3, 1, {}, []() { return true; });
  EXPECT_EQ(s.checked_in, 3u);
  EXPECT_EQ(s.active_total, 6u);
  EXPECT_EQ(s.duplicates, 3u);
  EXPECT_TRUE(s.missing.empty());
  // Nothing may leak into the next superstep's barrier — not even the
  // redelivered copy of the last worker's check-in.
  EXPECT_EQ(q.visible_count(), 0u);
  EXPECT_EQ(q.inflight_count(), 0u);
}

TEST(BarrierDrain, SeededDuplicateStreamIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.queue_duplicate_rate = 0.5;
    plan.seed = seed;
    FaultInjector inj(plan);
    AzureQueue q;
    for (std::uint32_t w = 0; w < 16; ++w) q.put(make_checkin(w, 1, 1));
    const auto s = drain_barrier(q, 16, 1, {}, [&]() { return inj.next_duplicate(); });
    EXPECT_EQ(s.checked_in, 16u);
    EXPECT_EQ(s.active_total, 16u);
    return s.duplicates;
  };
  EXPECT_EQ(run(0xFA00), run(0xFA00));
  EXPECT_NE(run(0xFA00), run(0xFA00) + 1);  // sanity: stable value
}

TEST(BarrierDrain, ZeroDuplicateRateDrawsNothing) {
  FaultPlan plan;  // all rates zero
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.next_duplicate());
  EXPECT_EQ(inj.draws(FaultKind::kQueueDuplicate), 0u);  // zero rate must not consume the stream
}

// ---------------------------------------------------------------------------
// Manager manifest: CRC-verified, bit-exact round trip.

TEST(ManagerManifest, SerializeRoundTripsBitExactly) {
  ManagerManifest m;
  m.superstep = 17;
  m.epoch = 3;
  m.location_version = 5;
  m.aggregators = {{1, 1.0 / 3.0}, {7, -0.0}, {42, 6.02214076e23}, {99, 5e-324}};
  const auto back = ManagerManifest::deserialize(m.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
  for (std::size_t i = 0; i < m.aggregators.size(); ++i) {
    EXPECT_EQ(std::signbit(back->aggregators[i].second),
              std::signbit(m.aggregators[i].second));
  }
}

TEST(ManagerManifest, DeserializeRejectsCorruption) {
  ManagerManifest m;
  m.superstep = 9;
  m.aggregators = {{3, 2.5}};
  std::string blob = m.serialize();
  EXPECT_TRUE(ManagerManifest::deserialize(blob).has_value());
  std::string flipped = blob;
  flipped[flipped.find('9')] = '8';  // bit-rot inside the body
  EXPECT_FALSE(ManagerManifest::deserialize(flipped).has_value());
  EXPECT_FALSE(ManagerManifest::deserialize(blob.substr(0, blob.size() / 2)).has_value());
  EXPECT_FALSE(ManagerManifest::deserialize("").has_value());
  EXPECT_FALSE(ManagerManifest::deserialize("crc=123\n").has_value());
}

// ---------------------------------------------------------------------------
// JobManager failover state machine.

TEST(JobManager, FailoverReloadsManifestAndBumpsEpoch) {
  JobManager mgr;
  EXPECT_EQ(mgr.state(), ManagerState::kPrimary);
  ManagerManifest m;
  m.superstep = 11;
  m.epoch = mgr.epoch();
  m.aggregators = {{5, 0.125}};
  mgr.persist(m);

  mgr.preempt();
  EXPECT_EQ(mgr.state(), ManagerState::kFailed);
  const ManagerManifest recovered = mgr.failover();
  EXPECT_EQ(recovered, m);
  EXPECT_EQ(mgr.state(), ManagerState::kPrimary);
  EXPECT_EQ(mgr.epoch(), m.epoch + 1);  // fencing epoch moved past the dead primary
  EXPECT_EQ(mgr.failovers(), 1u);

  // A second failover keeps fencing forward.
  m.epoch = mgr.epoch();
  mgr.persist(m);
  mgr.preempt();
  mgr.failover();
  EXPECT_EQ(mgr.epoch(), m.epoch + 1);
  EXPECT_EQ(mgr.failovers(), 2u);
}

TEST(JobManager, FailoverWithoutDurableStateThrows) {
  JobManager fresh;
  fresh.preempt();
  EXPECT_THROW(fresh.failover(), std::runtime_error);

  JobManager corrupted;
  ManagerManifest m;
  corrupted.persist(m);
  corrupted.corrupt_manifest_for_test("pregel-manifest-v1 superstep=0 ...\ncrc=1\n");
  corrupted.preempt();
  EXPECT_THROW(corrupted.failover(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// RetryPolicy op_deadline edge cases (audit pins).

TEST(RetryDeadline, FirstBackoffExceedingDeadlineAbandonsWithoutChargingSleep) {
  // op_deadline below even the base backoff: the op must be abandoned after
  // the first failed attempt, charging only that attempt's latency — never a
  // sleep it would not have had budget to start.
  FaultPlan plan;
  plan.queue_op_failure_rate = 0.9;
  FaultInjector inj(plan);
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.base_backoff = 0.1;
  retry.max_backoff = 5.0;
  retry.op_deadline = 0.05;
  const Seconds attempt_latency = 0.01;
  bool saw_failure = false;
  for (int i = 0; i < 100 && !saw_failure; ++i) {
    const auto out = inj.attempt(FaultKind::kQueueOp, retry, attempt_latency);
    if (out.success) continue;
    saw_failure = true;
    EXPECT_EQ(out.attempts, 1u);  // attempts remained, but the budget was gone
    EXPECT_EQ(out.faults, 1u);
    EXPECT_DOUBLE_EQ(out.extra_latency, attempt_latency);
    EXPECT_LE(out.extra_latency, retry.op_deadline);
  }
  EXPECT_TRUE(saw_failure);
}

TEST(RetryDeadline, DeadlineHitWithAttemptsRemainingStopsRetrying) {
  FaultPlan plan;
  plan.queue_op_failure_rate = 0.95;
  FaultInjector inj(plan);
  RetryPolicy retry;
  retry.max_attempts = 50;
  retry.base_backoff = 0.1;
  retry.max_backoff = 5.0;
  retry.op_deadline = 1.0;
  const Seconds attempt_latency = 0.2;
  bool saw_deadline_stop = false;
  for (int i = 0; i < 200 && !saw_deadline_stop; ++i) {
    const auto out = inj.attempt(FaultKind::kQueueOp, retry, attempt_latency);
    if (out.success || out.attempts == retry.max_attempts) continue;
    saw_deadline_stop = true;
    EXPECT_LT(out.attempts, retry.max_attempts);
    EXPECT_EQ(out.faults, out.attempts);  // accounting: every attempt failed
    EXPECT_EQ(out.corruptions, 0u);
    // The charged latency can exceed the deadline only by the final failed
    // attempt itself, never by an uncharged backoff sleep.
    EXPECT_LE(out.extra_latency, retry.op_deadline + attempt_latency);
  }
  EXPECT_TRUE(saw_deadline_stop);
}

TEST(RetryDeadline, DefaultPolicyNeverReachesDeadline) {
  // With the default policy the max possible sleep total (4 sleeps capped at
  // 5 s) plus small attempt latencies sits far below the 60 s deadline, so
  // the deadline path cannot fire — pinned here because tests elsewhere rely
  // on default-policy outcomes being a pure function of max_attempts.
  RetryPolicy retry;
  EXPECT_LT(4 * retry.max_backoff + retry.max_attempts * 0.1, retry.op_deadline);
}

}  // namespace
}  // namespace pregel::cloud
