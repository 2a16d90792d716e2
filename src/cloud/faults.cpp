#include "cloud/faults.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pregel::cloud {

namespace {

// Stream tags: stream k draws from FaultPlan::seed + k. A tag is part of
// the replay key of every run that enables its stream; never renumber one.
constexpr std::uint64_t kTenancyTag = 0;
constexpr std::uint64_t kQueueTag = 1;
constexpr std::uint64_t kBlobTag = 2;
constexpr std::uint64_t kPreemptionTag = 3;
constexpr std::uint64_t kStragglerTag = 4;
constexpr std::uint64_t kCorruptionTag = 5;  // also keys at-rest checkpoint rot
constexpr std::uint64_t kQueueCorruptionTag = 6;
constexpr std::uint64_t kManagerTag = 7;
constexpr std::uint64_t kZoneTag = 8;
constexpr std::uint64_t kDuplicateTag = 9;
constexpr std::uint64_t kCkptTag = 10;

/// A counter stream: its rate, its seed tag, and a salt XORed into the seed
/// (blob writes share the blob tag with reads but must not share draws).
struct CounterStream {
  double FaultPlan::*rate;
  std::uint64_t tag;
  std::uint64_t salt;
};

/// Indexed by FaultKind.
constexpr CounterStream kCounterStreams[] = {
    {&FaultPlan::queue_op_failure_rate, kQueueTag, 0},
    {&FaultPlan::blob_read_failure_rate, kBlobTag, 0},
    {&FaultPlan::blob_write_failure_rate, kBlobTag, 0x5bd1e995ULL},
    {&FaultPlan::blob_corruption_rate, kCorruptionTag, 0},
    {&FaultPlan::queue_corruption_rate, kQueueCorruptionTag, 0},
    {&FaultPlan::ckpt_torn_write_rate, kCkptTag, 0},
    {&FaultPlan::queue_duplicate_rate, kDuplicateTag, 0},
};
static_assert(std::size(kCounterStreams) == kFaultKinds, "one counter stream per FaultKind");

constexpr const CounterStream& stream_of(FaultKind kind) noexcept {
  return kCounterStreams[static_cast<std::size_t>(kind)];
}

constexpr double u01(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

void check_rate(double rate, const char* name) {
  if (!(rate >= 0.0 && rate < 1.0))  // written so NaN fails too
    throw std::logic_error(std::string("FaultPlan: ") + name + " must be in [0, 1)");
}

}  // namespace

void FaultPlan::validate() const {
  check_rate(queue_op_failure_rate, "queue_op_failure_rate");
  check_rate(blob_read_failure_rate, "blob_read_failure_rate");
  check_rate(blob_write_failure_rate, "blob_write_failure_rate");
  check_rate(blob_corruption_rate, "blob_corruption_rate");
  check_rate(queue_corruption_rate, "queue_corruption_rate");
  check_rate(ckpt_torn_write_rate, "ckpt_torn_write_rate");
  check_rate(ckpt_rot_rate, "ckpt_rot_rate");
  check_rate(vm_preemption_rate, "vm_preemption_rate");
  check_rate(manager_preemption_rate, "manager_preemption_rate");
  check_rate(zone_outage_rate, "zone_outage_rate");
  check_rate(queue_duplicate_rate, "queue_duplicate_rate");
  check_rate(straggler_rate, "straggler_rate");
  if (!(straggler_slowdown >= 1.0))
    throw std::logic_error("FaultPlan: straggler_slowdown must be >= 1");
  if (!(tenancy_sigma >= 0.0))
    throw std::logic_error("FaultPlan: tenancy_sigma must be non-negative");
}

void RetryPolicy::validate() const {
  if (max_attempts == 0) throw std::logic_error("RetryPolicy: max_attempts must be >= 1");
  if (base_backoff <= 0.0 || max_backoff < base_backoff)
    throw std::logic_error("RetryPolicy: need 0 < base_backoff <= max_backoff");
  if (op_deadline <= 0.0) throw std::logic_error("RetryPolicy: op_deadline must be > 0");
}

FaultInjector::FaultInjector(FaultPlan plan, std::vector<ForcedFault> forced)
    : plan_(plan), forced_(std::move(forced)) {
  plan_.validate();
}

bool FaultInjector::forced(ForcedFault::Kind kind, std::uint64_t at,
                           std::optional<std::uint32_t> target) const noexcept {
  return std::any_of(forced_.begin(), forced_.end(), [&](const ForcedFault& f) {
    return f.kind == kind && f.at == at && (!target || f.target == *target);
  });
}

std::optional<std::uint32_t> FaultInjector::take(ForcedFault::Kind kind, std::uint64_t at,
                                                 std::uint32_t limit) {
  const auto it = std::find_if(forced_.begin(), forced_.end(), [&](const ForcedFault& f) {
    return f.kind == kind && f.at == at && f.target < limit;
  });
  if (it == forced_.end()) return std::nullopt;
  const std::uint32_t target = it->target;
  forced_.erase(it);
  return target;
}

double FaultInjector::next_uniform(FaultKind kind) noexcept {
  const CounterStream& st = stream_of(kind);
  std::uint64_t& counter = draws_[static_cast<std::size_t>(kind)];
  const std::uint64_t seed = (plan_.seed + st.tag) ^ st.salt;
  return u01(mix64(seed ^ (0x9E3779B97F4A7C15ULL * ++counter)));
}

RetryOutcome FaultInjector::attempt(FaultKind kind, const RetryPolicy& retry,
                                    Seconds attempt_latency) {
  RetryOutcome out;
  const double rate = plan_.*stream_of(kind).rate;
  // Corruption composes with delivery kinds only: an otherwise-successful
  // blob-read or queue-op attempt additionally draws from its corruption
  // stream, so a zero corruption rate leaves the base stream's draw
  // sequence untouched.
  const double corrupt_rate = kind == FaultKind::kBlobRead ? plan_.blob_corruption_rate
                              : kind == FaultKind::kQueueOp ? plan_.queue_corruption_rate
                                                            : 0.0;
  const FaultKind corrupt_kind = kind == FaultKind::kQueueOp ? FaultKind::kQueueCorrupt
                                                             : FaultKind::kBlobCorrupt;
  if (rate <= 0.0 && corrupt_rate <= 0.0) return out;  // clean first try, nothing charged

  Seconds sleep = retry.base_backoff;
  for (std::uint32_t a = 1; a <= retry.max_attempts; ++a) {
    out.attempts = a;
    bool failed = rate > 0.0 && next_uniform(kind) < rate;
    if (!failed && corrupt_rate > 0.0 &&
        next_uniform(corrupt_kind) < corrupt_rate) {
      failed = true;  // payload delivered but fails checksum verification
      ++out.corruptions;
    }
    if (!failed) {
      out.success = true;
      return out;
    }
    ++out.faults;
    out.extra_latency += attempt_latency;  // the failed call itself
    if (a == retry.max_attempts) break;
    // Decorrelated jitter: next sleep uniform in [base, 3 * previous sleep].
    const double span = std::max(0.0, 3.0 * sleep - retry.base_backoff);
    sleep = std::min(retry.max_backoff,
                     retry.base_backoff + next_uniform(kind) * span);
    // Deadline check happens *before* the sleep is charged: a client never
    // starts a backoff longer than its remaining budget, so the accumulated
    // extra latency can exceed op_deadline by at most one failed attempt —
    // not by a whole max_backoff sleep. (The jitter draw above is consumed
    // either way, keeping the stream position independent of the deadline.)
    if (out.extra_latency + sleep > retry.op_deadline) break;  // deadline blown
    out.extra_latency += sleep;
  }
  out.success = false;
  return out;
}

bool FaultInjector::vm_preempted(std::uint32_t vm, std::uint64_t superstep,
                                 std::uint64_t epoch) const noexcept {
  if (plan_.vm_preemption_rate <= 0.0) return false;
  const std::uint64_t key = mix64((plan_.seed + kPreemptionTag) ^ (superstep * 131) ^
                                  (static_cast<std::uint64_t>(vm) << 32) ^
                                  (epoch * 0x9E3779B9ULL));
  return u01(key) < plan_.vm_preemption_rate;
}

bool FaultInjector::manager_preempted(std::uint64_t superstep,
                                      std::uint64_t epoch) const noexcept {
  if (plan_.manager_preemption_rate <= 0.0) return false;
  const std::uint64_t key = mix64((plan_.seed + kManagerTag) ^ (superstep * 0x1000193ULL) ^
                                  (epoch * 0x9E3779B9ULL));
  return u01(key) < plan_.manager_preemption_rate;
}

bool FaultInjector::zone_outage(std::uint32_t zone, std::uint64_t superstep,
                                std::uint64_t epoch) const noexcept {
  if (plan_.zone_outage_rate <= 0.0) return false;
  const std::uint64_t key = mix64((plan_.seed + kZoneTag) ^ (superstep * 0x1000193ULL) ^
                                  (static_cast<std::uint64_t>(zone) << 32) ^
                                  (epoch * 0x9E3779B9ULL));
  return u01(key) < plan_.zone_outage_rate;
}

std::optional<std::uint32_t> FaultInjector::worker_death(std::uint64_t superstep,
                                                         std::uint64_t epoch,
                                                         std::uint32_t workers) {
  if (const auto vm = take(ForcedFault::Kind::kWorkerDeath, superstep, workers)) return vm;
  for (std::uint32_t w = 0; w < workers; ++w)
    if (vm_preempted(w, superstep, epoch)) return w;
  return std::nullopt;
}

std::optional<std::uint32_t> FaultInjector::zone_outage_at(std::uint64_t superstep,
                                                           std::uint64_t epoch,
                                                           std::uint32_t zones) {
  if (const auto zone = take(ForcedFault::Kind::kZoneOutage, superstep, zones)) return zone;
  for (std::uint32_t z = 0; z < zones; ++z)
    if (zone_outage(z, superstep, epoch)) return z;
  return std::nullopt;
}

bool FaultInjector::ckpt_torn(std::uint64_t round, std::uint32_t partition) {
  const bool forced_tear =
      partition == kCkptManifestPartition
          ? forced(ForcedFault::Kind::kManifestTear, round)
          : forced(ForcedFault::Kind::kLegTear, round, partition);
  return forced_tear || next_ckpt_torn();
}

bool FaultInjector::replica_round_fails(std::uint64_t round) const noexcept {
  return forced(ForcedFault::Kind::kReplicaFailure, round);
}

bool FaultInjector::next_ckpt_torn() noexcept {
  if (plan_.ckpt_torn_write_rate <= 0.0) return false;
  return next_uniform(FaultKind::kCkptTornWrite) < plan_.ckpt_torn_write_rate;
}

bool FaultInjector::ckpt_rot(std::uint64_t serial, std::uint32_t partition,
                             std::uint32_t copy, std::uint32_t repair_epoch) const noexcept {
  if (repair_epoch == 0 &&
      ((copy == 0 && forced(ForcedFault::Kind::kLegRot, serial, partition)) ||
       (copy == kCkptManifestCopy && forced(ForcedFault::Kind::kManifestRot, serial))))
    return true;
  if (plan_.ckpt_rot_rate <= 0.0) return false;
  const std::uint64_t key =
      mix64((plan_.seed + kCorruptionTag) ^ (serial * 0x1000193ULL) ^
            (static_cast<std::uint64_t>(partition) << 32) ^
            (static_cast<std::uint64_t>(copy) << 24) ^
            (static_cast<std::uint64_t>(repair_epoch) * 0x9E3779B9ULL));
  return u01(key) < plan_.ckpt_rot_rate;
}

bool FaultInjector::next_duplicate() noexcept {
  if (plan_.queue_duplicate_rate <= 0.0) return false;
  return next_uniform(FaultKind::kQueueDuplicate) < plan_.queue_duplicate_rate;
}

double FaultInjector::straggler_factor(std::uint32_t vm,
                                       std::uint64_t superstep) const noexcept {
  if (plan_.straggler_rate <= 0.0) return 1.0;
  const std::uint64_t key = mix64((plan_.seed + kStragglerTag) ^ (superstep * 0x85EBCA6BULL) ^
                                  (static_cast<std::uint64_t>(vm) << 32));
  return u01(key) < plan_.straggler_rate ? plan_.straggler_slowdown : 1.0;
}

double FaultInjector::slowdown(std::uint32_t vm, std::uint64_t superstep) const noexcept {
  double tenancy = 1.0;
  if (plan_.tenancy_sigma > 0.0) {
    // Hash (seed, vm, superstep) into a deterministic gaussian draw via a
    // dedicated generator — stateless with respect to call order.
    const std::uint64_t key = mix64((plan_.seed + kTenancyTag) ^
                                    (static_cast<std::uint64_t>(vm) << 40) ^
                                    mix64(superstep + 0x9E37));
    Xoshiro256 rng(key);
    const double z = rng.next_gaussian();
    // Lognormal centered so the median factor is 1; clamp at 1 from below
    // (other tenants can only slow us down, never speed us up).
    const double f = std::exp(plan_.tenancy_sigma * z);
    tenancy = f < 1.0 ? 1.0 : f;
  }
  return tenancy * straggler_factor(vm, superstep);
}

}  // namespace pregel::cloud
