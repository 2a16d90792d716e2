// Fault injection for the simulated cloud substrate.
//
// The paper runs Pregel.NET on real Azure, where the storage services are
// "reliable" only through client-side retries, multi-tenant VMs straggle,
// and workers can disappear mid-job. This module is the one source of that
// weather: a seeded, deterministic FaultInjector draws transient
// queue-operation failures, blob read/write failures, continuous
// multi-tenancy slowdowns and episodic straggler slowdowns per (VM,
// superstep), worker deaths, manager preemptions and zone outages, each
// with an independently configurable rate. A RetryPolicy (exponential
// backoff with decorrelated jitter, capped attempts, per-op deadline)
// describes how the control plane masks the transient classes; the engine
// charges the masked latency to the cost model and escalates exhausted
// retries to worker failures.
//
// Every draw is a pure function of (seed, stream counter) or
// (seed, vm, superstep[, epoch]), where each stream draws from one
// FaultPlan::seed offset by a fixed per-stream tag, so identical
// configurations replay identical fault sequences — experiments stay
// bit-reproducible.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/units.hpp"

namespace pregel::cloud {

/// Transient fault classes the injector can produce. kBlobCorrupt models a
/// read that completes but returns a payload failing checksum verification;
/// the read path escalates it to a retriable failure. kQueueCorrupt is the
/// queue-plane analog: a dequeue that delivers a message whose CRC32C check
/// fails (the data-plane hot path, not just recovery reads). kCkptTornWrite
/// is a checkpoint-store write (data leg or manifest) that is acknowledged
/// but lands torn — undetectable at write time, caught by CRC verification
/// when the blob is next read (restore walk or scrub pass). kQueueDuplicate
/// is a barrier check-in whose remove() is lost, so the queue redelivers it.
enum class FaultKind {
  kQueueOp,
  kBlobRead,
  kBlobWrite,
  kBlobCorrupt,
  kQueueCorrupt,
  kCkptTornWrite,
  kQueueDuplicate,
};
inline constexpr std::size_t kFaultKinds = static_cast<std::size_t>(FaultKind::kQueueDuplicate) + 1;

/// Everything that goes wrong on the modeled cluster, how often, and under
/// which seed.
struct FaultPlan {
  /// Per-operation transient failure probabilities (retriable).
  double queue_op_failure_rate = 0.0;
  double blob_read_failure_rate = 0.0;
  double blob_write_failure_rate = 0.0;

  /// Probability that a blob read returns a payload whose CRC32C check
  /// fails (torn or bit-rotted object). Drawn from its own stream on
  /// otherwise-successful read attempts only, so it composes with
  /// blob_read_failure_rate without perturbing its draw sequence.
  double blob_corruption_rate = 0.0;

  /// Probability that a queue operation delivers a message failing its
  /// CRC32C check. Composes with queue_op_failure_rate exactly as
  /// blob_corruption_rate composes with blob reads: drawn from its own
  /// stream on otherwise-successful attempts only.
  double queue_corruption_rate = 0.0;

  /// Probability that one checkpoint-store blob write (a per-partition data
  /// leg, the chain-hashed manifest, or a cross-zone replica leg) is
  /// acknowledged but lands torn. Drawn from its own counter stream, one
  /// draw per write, so it composes with the kBlobWrite retry stream
  /// without perturbing its draw sequence.
  double ckpt_torn_write_rate = 0.0;

  /// Probability that a stored checkpoint blob copy bit-rots at rest.
  /// Keyed by (publish serial, partition, copy, repair epoch) — call-order
  /// independent, so a restore walk and a scrub pass observe the same rot —
  /// and drawn on the kBlobCorrupt stream's seed, since rot is
  /// detected by exactly the CRC32C verification that catches corrupt
  /// reads. A scrub repair bumps the copy's repair epoch and the rewritten
  /// blob redraws.
  double ckpt_rot_rate = 0.0;

  /// Worker-death (spot-style VM preemption) probability per VM per
  /// superstep. A dead VM is a worker failure: the engine recovers from the
  /// last checkpoint (or loses the job without one).
  double vm_preemption_rate = 0.0;

  /// Probability (per superstep, per manager epoch) that the job-manager
  /// role itself is preempted mid-superstep. A standby detects the lost
  /// lease, reloads the manifest blob, bumps the fencing epoch and resumes;
  /// the detection + takeover latency is charged to the cost model.
  double manager_preemption_rate = 0.0;

  /// Probability (per availability zone, per superstep) that an entire zone
  /// goes dark at once, preempting every VM placed in it. Only meaningful
  /// when the cluster is configured with more than one zone.
  double zone_outage_rate = 0.0;

  /// Probability that a barrier check-in's remove() is lost (visibility
  /// timeout expires while the manager holds the message), so the queue
  /// redelivers it and the barrier loop must dedupe. Drawn from its own
  /// stream once per successfully tallied check-in.
  double queue_duplicate_rate = 0.0;

  /// Probability that a VM straggles in a given superstep, and the
  /// multiplicative slowdown applied to its compute/network time when it
  /// does (multi-tenant noisy-neighbor episodes, on top of the continuous
  /// tenancy noise below).
  double straggler_rate = 0.0;
  double straggler_slowdown = 4.0;

  /// Continuous multi-tenancy noise: every VM's compute/network time in
  /// every superstep is scaled by a lognormal factor exp(sigma * z), clamped
  /// at 1 from below (other tenants only slow a VM down). 0 = perfectly
  /// deterministic timings; typical cloud variability is 0.1-0.3.
  double tenancy_sigma = 0.0;

  /// The one seed behind every stream: stream k draws from seed + k, with
  /// the tags fixed in faults.cpp.
  std::uint64_t seed = 0xFA00;

  /// Throws std::logic_error on out-of-range rates, negative sigma, or
  /// slowdown < 1.
  void validate() const;
};

/// Client-side retry discipline for control-plane storage operations:
/// exponential backoff with decorrelated jitter (sleep_{n+1} drawn uniformly
/// from [base, 3*sleep_n], capped), bounded attempts, and a per-operation
/// latency deadline after which the caller gives up.
struct RetryPolicy {
  std::uint32_t max_attempts = 5;
  Seconds base_backoff = 100_ms;
  Seconds max_backoff = 5.0;
  /// Total extra latency (failed attempts + sleeps) a single logical op may
  /// accumulate before it is abandoned even with attempts remaining.
  Seconds op_deadline = 60.0;

  /// Throws std::logic_error on zero attempts or non-positive delays.
  void validate() const;
};

/// Outcome of one logical operation run under a RetryPolicy.
struct RetryOutcome {
  bool success = true;
  std::uint32_t attempts = 1;   ///< total attempts made (1 = clean first try)
  std::uint64_t faults = 0;     ///< transient failures drawn along the way
  std::uint64_t corruptions = 0;  ///< checksum-failed reads among the faults
  Seconds extra_latency = 0.0;  ///< failed-attempt latency + backoff sleeps
};

/// Deterministic fault source. Queue/blob/duplicate/torn-write draws consume
/// per-kind stream counters (call order within a kind is the replay key);
/// preemption and slowdown draws are keyed by (vm, superstep) so they are
/// call-order independent, with preemption additionally keyed by the
/// recovery epoch so a replayed superstep redraws instead of dying forever.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Run one logical operation of `kind` under `retry`. `attempt_latency` is
  /// the modeled cost of a failed attempt (the successful attempt is charged
  /// by the caller exactly as it would be without fault injection, so a
  /// zero-rate plan adds zero latency and perturbs nothing).
  RetryOutcome attempt(FaultKind kind, const RetryPolicy& retry, Seconds attempt_latency);

  /// Worker-death draw for `vm` at `superstep` in recovery `epoch`.
  bool vm_preempted(std::uint32_t vm, std::uint64_t superstep,
                    std::uint64_t epoch) const noexcept;

  /// Manager-preemption draw for `superstep` under fencing `epoch`. Keyed by
  /// the epoch so the standby that just took over does not immediately
  /// redraw the same death at the same superstep.
  bool manager_preempted(std::uint64_t superstep, std::uint64_t epoch) const noexcept;

  /// Correlated-failure draw: does availability `zone` go dark at
  /// `superstep` in recovery `epoch`?
  bool zone_outage(std::uint32_t zone, std::uint64_t superstep,
                   std::uint64_t epoch) const noexcept;

  /// Duplicate-delivery draw for one tallied barrier check-in: true when the
  /// remove() is lost and the message will be redelivered. Consumes the
  /// kQueueDuplicate stream counter; a zero rate draws nothing.
  bool next_duplicate() noexcept;

  /// Torn-write draw for one checkpoint-store blob write (data leg,
  /// manifest, or replica leg). Consumes the kCkptTornWrite stream counter;
  /// a zero rate draws nothing.
  bool next_ckpt_torn() noexcept;

  /// At-rest bit-rot draw for checkpoint blob copy `copy` (0 = primary,
  /// 1 = replica) of partition `partition` in the generation published with
  /// `serial`. Pure function of the key, so restore walks and scrub passes
  /// agree on which copies rotted; `repair_epoch` counts scrub repairs of
  /// this copy so a rewritten blob redraws instead of rotting forever.
  bool ckpt_rot(std::uint64_t serial, std::uint32_t partition, std::uint32_t copy,
                std::uint32_t repair_epoch) const noexcept;

  /// Straggler slowdown factor (>= 1) for `vm` at `superstep`; exactly 1
  /// when the VM is not straggling.
  double straggler_factor(std::uint32_t vm, std::uint64_t superstep) const noexcept;

  /// Total slowdown (>= 1) of `vm` at `superstep`: the tenancy lognormal
  /// times the straggler factor; exactly 1 when both are off.
  double slowdown(std::uint32_t vm, std::uint64_t superstep) const noexcept;

  std::uint64_t draws(FaultKind kind) const noexcept {
    return draws_[static_cast<std::size_t>(kind)];
  }

 private:
  /// Uniform [0,1) from the kind's counter stream; advances the counter.
  double next_uniform(FaultKind kind) noexcept;

  FaultPlan plan_;
  std::array<std::uint64_t, kFaultKinds> draws_{};
};

}  // namespace pregel::cloud
