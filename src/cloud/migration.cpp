#include "cloud/migration.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/trace.hpp"
#include "util/check.hpp"

namespace pregel::cloud {

MigrationExecutor::MigrationExecutor(const CostModel& cost, const VmSpec& vm,
                                     QueueService& queues, ControlOpFn control_op)
    : cost_(cost), vm_(vm), queues_(queues), control_op_(std::move(control_op)) {
  PREGEL_CHECK(static_cast<bool>(control_op_));
}

MigrationOutcome MigrationExecutor::execute(
    std::span<const MigrationTransfer> transfers, std::uint64_t superstep) {
  MigrationOutcome out;
  trace::Span span("engine.migration.transfer", "migration", "superstep", superstep);

  auto& migrate = queues_.queue("migrate");
  Seconds retry_extra = 0.0;
  std::vector<Bytes> vm_bytes;  // NIC bytes per VM (out + in), resized lazily
  for (const auto& t : transfers) {
    if (t.bytes == 0 && t.vertices == 0) continue;
    PREGEL_CHECK_MSG(t.from_vm != t.to_vm,
                     "migration transfer must cross VMs (same-VM moves are free)");

    // Manifest through the control plane: the donor posts what is coming,
    // the receiver dequeues and acknowledges. One fault draw covers the
    // logical op; the physical queue traffic keeps op counts honest.
    Seconds leg_extra = 0.0;
    const auto q = control_op_(FaultKind::kQueueOp);
    leg_extra += q.extra_latency;
    bool ok = q.success;
    [[maybe_unused]] const std::uint64_t id = migrate.put(
        "migrate:" + std::to_string(t.from_vm) + ">" + std::to_string(t.to_vm) +
        ":" + std::to_string(t.bytes));
    const auto manifest = migrate.get();
    PREGEL_DCHECK(manifest.has_value() && manifest->id == id);
    PREGEL_CHECK_MSG(verify_queue_message(*manifest),
                     "migration manifest failed CRC32C verification");
    migrate.remove(manifest->id);
    out.queue_ops += 3;

    // Payload legs: donor stages the bundle to blob, receiver reads it back.
    const auto w = control_op_(FaultKind::kBlobWrite);
    leg_extra += w.extra_latency;
    ok = ok && w.success;
    const auto r = control_op_(FaultKind::kBlobRead);
    leg_extra += r.extra_latency;
    ok = ok && r.success;

    // Legs run in parallel across VM pairs; the worst retry tail bounds the
    // extension even when the event aborts.
    retry_extra = std::max(retry_extra, leg_extra);
    if (!ok) {
      out.aborted = true;
      continue;
    }
    const std::uint32_t hi = std::max(t.from_vm, t.to_vm);
    if (vm_bytes.size() <= hi) vm_bytes.resize(hi + 1, 0);
    vm_bytes[t.from_vm] += t.bytes;
    vm_bytes[t.to_vm] += t.bytes;
    out.bytes_moved += t.bytes;
    out.vertices_moved += t.vertices;
  }

  if (out.aborted) {
    out.stall = retry_extra;
    out.bytes_moved = 0;
    out.vertices_moved = 0;
    return out;
  }
  if (out.bytes_moved == 0 && out.vertices_moved == 0) return out;

  Bytes busiest = 0;
  for (const Bytes b : vm_bytes) busiest = std::max(busiest, b);
  out.stall = cost_.transfer_time(busiest, vm_) + cost_.params().queue_op_latency + retry_extra;
  return out;
}

}  // namespace pregel::cloud
