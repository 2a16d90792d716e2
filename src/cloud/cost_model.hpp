// The virtual-time cost model.
//
// Every duration the simulator reports comes from this model. Per superstep
// and per worker the engine collects raw counts (vertices computed, messages
// processed/sent local & remote, bytes moved, peak buffered memory) and the
// cost model converts them into modeled seconds, applying the VM's resource
// envelope:
//
//   compute  = (vertex work + message work) / cores   [* thrash penalty]
//   network  = bytes / effective bandwidth + per-superstep connection setup
//   barrier  = queue round-trips to the job manager (grows with worker count)
//
// The thrash penalty models the paper's central failure mode: message
// buffers spilling past physical RAM into virtual memory with random-access
// patterns ("may be even worse than disk-based buffering"), and past a hard
// ceiling, the Azure fabric declaring the VM unresponsive and restarting it.
#pragma once

#include <cstdint>

#include "cloud/vm.hpp"
#include "runtime/metrics.hpp"
#include "util/units.hpp"

namespace pregel::cloud {

struct CostParams {
  // CPU work, expressed in clock cycles on the VM's cores so that a faster
  // VM finishes sooner. Values chosen for a managed-runtime (.NET-like)
  // framework: message handling is comparable in cost to user compute, as
  // Section IV of the paper observes.
  double cycles_per_vertex_op = 4000;
  double cycles_per_message_processed = 2500;
  double cycles_per_message_sent = 2000;  ///< serialization + routing
  /// One internal step of a subgraph-centric program (a relaxation, a
  /// union-find find+union, one Gauss-Seidel update). Much cheaper than a
  /// full vertex_op: no per-vertex dispatch, no message envelope handling —
  /// the sequential algorithm runs over raw adjacency. This asymmetry is
  /// the subgraph model's whole bet (GoFFish): trade framework overhead per
  /// vertex for tight loops inside the partition.
  double cycles_per_subgraph_op = 400;

  // Wire format: payload + envelope (vertex id, type tag, framing).
  Bytes message_envelope_bytes = 16;
  // In-memory footprint of one buffered message (managed-object overhead:
  // queue node, object header, payload boxing).
  Bytes message_object_overhead_bytes = 64;

  /// Fraction of NIC line rate actually achievable for bulk transfers on a
  /// multi-tenant cloud (the paper's 400 Mbps is a rating, not a promise).
  double network_efficiency = 0.70;
  /// Per-superstep TCP (re)connection setup; the paper reestablishes
  /// worker-to-worker sockets every superstep to avoid timeouts.
  Seconds connection_setup_per_peer = 2_ms;

  /// Azure queue operation latency (control messages: step/barrier tokens).
  Seconds queue_op_latency = 30_ms;
  /// Job-manager bookkeeping per worker per barrier.
  Seconds barrier_per_worker = 5_ms;

  /// Compute/network slowdown multiplier per unit of relative memory
  /// overflow: factor = 1 + vm_thrash_slope * (mem/ram - 1), while mem > ram.
  /// Random-access paging of message buffers is punitive (the paper: "may be
  /// even worse than disk-based buffering"); 24 puts a worker 10% over RAM
  /// at ~3.4x and one at the 1.5x restart threshold at ~13x slowdown.
  /// bench_ablation_thrash_sensitivity sweeps this parameter.
  double vm_thrash_slope = 24.0;
  /// Memory at or beyond this multiple of RAM makes the cloud fabric declare
  /// the VM unresponsive and restart it -> the job fails (JobFailure).
  double vm_restart_threshold = 1.5;
};

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostParams params);

  const CostParams& params() const noexcept { return params_; }

  /// Thrash multiplier for a worker whose peak memory was `mem` on `vm`.
  /// Returns 1.0 when within RAM. Throws nothing; restart is a separate query.
  double thrash_penalty(Bytes mem, const VmSpec& vm) const noexcept;

  /// True when the overflow is severe enough that the fabric restarts the VM.
  bool triggers_restart(Bytes mem, const VmSpec& vm) const noexcept;

  /// Modeled CPU time for one worker's superstep work on `vm`
  /// (thrash penalty included).
  Seconds compute_time(const WorkerLoad& load, const VmSpec& vm) const noexcept;

  /// Modeled network time: max(send, recv) through the NIC at effective
  /// bandwidth, plus connection setup to `peers` other workers
  /// (thrash penalty included — paging stalls the transfer threads too).
  Seconds network_time(const WorkerLoad& load, const VmSpec& vm,
                       std::uint32_t peers) const noexcept;

  /// Modeled barrier/control overhead for a superstep with `workers` workers:
  /// step-token dequeue + barrier-token enqueue + manager processing.
  Seconds barrier_time(std::uint32_t workers) const noexcept;

  /// Modeled time to move `bytes` through the VM's NIC at effective
  /// bandwidth (bytes / bandwidth; zero when the VM has no bandwidth). The
  /// one transfer formula every blob download, upload and migration uses.
  Seconds transfer_time(Bytes bytes, const VmSpec& vm) const noexcept;

  /// Modeled wall time to spill `bytes` of message buffers to blob storage
  /// and read them back later: a round trip through the VM's NIC at
  /// effective bandwidth. The memory-pressure governor charges this when it
  /// trades spill I/O for staying under the memory target.
  Seconds spill_transfer_time(Bytes bytes, const VmSpec& vm) const noexcept;

  /// Wire bytes for a message with `payload` bytes.
  Bytes wire_bytes(Bytes payload) const noexcept {
    return payload + params_.message_envelope_bytes;
  }
  /// In-memory buffered footprint for a message with `payload` bytes.
  Bytes buffered_bytes(Bytes payload) const noexcept {
    return payload + params_.message_object_overhead_bytes;
  }

 private:
  CostParams params_;
};

}  // namespace pregel::cloud
