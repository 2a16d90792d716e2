// Generational delta-checkpoint store with verified multi-generation
// recovery, background scrub, and retention GC.
//
// The engine's original fault-tolerance design (PR 1/4/6) kept exactly one
// in-memory full Snapshot: every checkpoint round re-uploaded every
// partition's whole state, and one corrupt or torn blob stood between a
// worker failure and job loss. This module replaces that with the blob
// layout a production BSP system would actually write:
//
//  * A *generation* per checkpoint round: one CRC32C-verified data leg per
//    partition, plus a chain-hashed manifest naming the legs. A full *base*
//    generation carries whole-partition state; a *delta* generation carries
//    only state dirtied since the previous generation (sized from modeled
//    per-partition activity), so steady-state checkpoint bytes track the
//    frontier, not the graph.
//  * *Two-phase atomic publish*: data legs first, manifest last. A
//    preemption or torn write during the legs leaves the previous manifest
//    in force; a torn manifest write loses the round, never half of it. No
//    reader can observe a generation whose manifest has not landed.
//  * *Multi-generation fallback restore*: the restore walk starts at the
//    newest published generation and verifies every blob its restore set
//    needs (its base and all intermediate deltas). Torn legs
//    (FaultKind::kCkptTornWrite), at-rest rot (FaultPlan::ckpt_rot_rate on
//    the kBlobCorrupt seed), and corrupt manifests fail verification; the
//    walk falls back to the next older generation — reading cross-zone
//    replica legs where the primary is bad — instead of failing the job.
//    Generation 0 (the input graph in blob storage) is the incorruptible
//    floor: with checkpointing on, recovery always has somewhere to land.
//  * *Scrub*: a modeled background pass between barriers re-verifies every
//    retained copy and re-replicates rotted or torn ones from a surviving
//    copy, bumping the copy's repair epoch so the rewritten blob redraws.
//  * *Retention/GC*: old generations beyond the retention window are
//    deleted (the caller prices one delete op per leg), but never a base or
//    delta a retained generation's restore set still needs. Chain length is
//    bounded by periodic re-basing (CkptOptions::max_chain_length), and a
//    vertex-location-table change (migration, scaling) forces a re-base
//    because per-partition delta domains no longer align with stored legs.
//
// Like the rest of the cloud substrate, everything here is *modeled*: the
// store tracks blob metadata and deterministic fault state while the actual
// recoverable state rides along as an opaque payload owned by the engine.
// All costs are surfaced to the caller in bytes and op counts to be charged
// in modeled time; with all fault rates zero and delta mode at its default,
// a run's values stay bit-identical at any parallelism.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/faults.hpp"
#include "util/units.hpp"

namespace pregel::cloud {

/// Checkpoint-store policy knobs (ClusterConfig::ckpt). Forced tears, rot
/// and replica failures are ForcedFault entries in
/// ClusterConfig::scheduled_failures, which the FaultInjector consults.
struct CkptOptions {
  /// Write delta generations between bases (off = every generation full).
  bool delta_enabled = true;
  /// Deltas allowed on one base before the next round is forced full.
  std::uint32_t max_chain_length = 4;
  /// Published generations kept restorable (generation 0 is always kept).
  /// GC never deletes a generation a retained restore set still needs.
  std::uint32_t retained_generations = 3;
  /// Scrub every N barriers (0 = off): re-verify all retained copies,
  /// re-replicate rotted/torn ones from a surviving copy.
  std::uint32_t scrub_period = 0;

  /// Throws std::logic_error on zero retention or zero chain bound.
  void validate() const;
};

/// One partition's data blob within a generation.
struct CkptLeg {
  std::uint32_t partition = 0;
  Bytes bytes = 0;
  std::uint32_t home_vm = 0;      ///< worker that wrote the primary copy
  std::uint32_t home_zone = 0;    ///< zone the primary blob is homed in
  std::uint32_t replica_zone = 0; ///< zone of the cross-zone replica copy
  bool torn = false;              ///< primary landed torn at write time
  bool replica_torn = false;      ///< replica landed torn at write time
  bool rotted = false;            ///< primary rot detected (persists until repaired)
  bool replica_rotted = false;    ///< replica rot detected
  std::uint32_t repairs = 0;          ///< scrub repairs of the primary copy
  std::uint32_t replica_repairs = 0;  ///< scrub repairs of the replica copy
};

/// One published generation: metadata + the opaque engine snapshot that
/// restores it. `seq` is the publish serial (monotonic, never reused even
/// across rollback truncation) and the rot-draw key.
struct CkptGeneration {
  std::uint64_t seq = 0;
  std::uint64_t resume_superstep = 0;
  bool is_base = false;
  std::uint64_t location_version = 0;
  /// mix of the parent's chain hash and this manifest's CRC32C — the
  /// restore walk re-derives it to detect a corrupt mid-chain manifest.
  std::uint64_t chain_hash = 0;
  bool replicated = false;       ///< cross-zone replica round completed
  bool manifest_rotted = false;  ///< manifest rot detected (fails the chain)
  std::uint32_t manifest_repairs = 0;
  std::vector<CkptLeg> legs;
  std::shared_ptr<void> payload;  ///< engine Snapshot (opaque to the store)

  Bytes total_bytes() const noexcept;
  /// CRC32C-trailed manifest text (same idiom as ManagerManifest): the
  /// bytes a real store would publish, exercised for real by the tests.
  std::string manifest_text() const;
};

/// What one checkpoint round did, for the caller to price and count.
struct CkptWriteOutcome {
  bool published = false;   ///< manifest landed; generation is visible
  bool is_base = false;
  Bytes bytes_written = 0;  ///< sum of data-leg bytes
  std::uint32_t torn_legs = 0;        ///< data legs that landed torn
  bool manifest_torn = false;         ///< round lost at the publish step
  std::uint32_t gc_generations = 0;   ///< generations retired by retention GC
  std::uint64_t gc_delete_ops = 0;    ///< blob deletes the caller prices
};

/// The restore the walk settled on. `partition_bytes[p]` is the total
/// restore-set bytes partition p's current owner must download (base leg +
/// every intermediate delta leg). `initial` means the walk fell all the way
/// to generation 0 — the free input-graph restart with no legs to read.
struct CkptRestorePlan {
  std::uint64_t seq = 0;
  std::uint64_t resume_superstep = 0;
  std::uint32_t fallback_depth = 0;   ///< published generations skipped
  std::uint32_t corrupt_legs = 0;     ///< torn/rotted legs hit during the walk
  std::uint32_t corrupt_manifests = 0;
  std::uint32_t replica_reads = 0;    ///< legs readable only via the replica
  bool initial = false;
  std::vector<Bytes> partition_bytes;
  std::shared_ptr<void> payload;
};

/// One scrub pass's findings, for the caller to price and count.
struct CkptScrubOutcome {
  std::uint64_t copies_verified = 0;
  std::uint32_t repairs = 0;       ///< rotted/torn copies re-replicated
  Bytes repaired_bytes = 0;        ///< re-replication transfer to price
  std::uint32_t manifest_repairs = 0;
};

/// The generational checkpoint chain. The engine owns one per job and
/// drives it at barriers; the store owns all blob/fault bookkeeping and the
/// per-generation payload handles. Deterministic by construction: every
/// fault consultation is a seeded stream or keyed draw on the injector.
class CkptStore {
 public:
  /// (Re)configure for a run. Wipes the chain.
  void configure(const CkptOptions& opts, std::uint32_t partitions);
  /// Wipe the chain only (configuration survives).
  void reset();

  /// Install generation 0: the implicit superstep-0 base backed by the
  /// input graph in blob storage. Free, incorruptible, never GC'd. No-op if
  /// a generation 0 already exists.
  void seed_initial(std::shared_ptr<void> payload);

  bool has_checkpoint() const noexcept { return !chain_.empty(); }
  /// Publish serial of the newest visible generation (0 = only gen 0).
  std::uint64_t newest_seq() const noexcept {
    return chain_.empty() ? 0 : chain_.back().seq;
  }
  /// Payload of the newest visible generation (nullptr when empty). The
  /// non-const overload lets the governor's shed rung update the parked
  /// root list inside the snapshot it just restored.
  const void* newest_payload() const noexcept {
    return chain_.empty() ? nullptr : chain_.back().payload.get();
  }
  void* newest_payload() noexcept {
    return chain_.empty() ? nullptr : chain_.back().payload.get();
  }
  /// Resume superstep of the newest visible generation (0 when empty).
  std::uint64_t newest_resume_superstep() const noexcept {
    return chain_.empty() ? 0 : chain_.back().resume_superstep;
  }

  /// Will the next generation be written full (base)? True when the chain
  /// holds no uploaded generation yet, delta mode is off, the chain-length
  /// bound is hit, or the location tables changed since the last
  /// generation (migration-aware delta domains: a moved vertex invalidates
  /// the per-partition dirty alignment, so the store re-bases).
  bool next_is_base(std::uint64_t location_version) const noexcept;

  /// One checkpoint round: stage `leg_bytes` (indexed by partition), draw
  /// torn-write faults per leg, then attempt the atomic manifest publish.
  /// On success the generation becomes visible and retention GC runs; on a
  /// torn manifest nothing becomes visible and the previous generation
  /// stays newest. The caller charges transfer time from the outcome and,
  /// if published, attaches the payload via attach_payload().
  CkptWriteOutcome write_generation(std::uint64_t resume_superstep,
                                    std::uint64_t location_version,
                                    const std::vector<Bytes>& leg_bytes,
                                    const std::vector<std::uint32_t>& home_vm,
                                    const std::vector<std::uint32_t>& home_zone,
                                    std::uint32_t zones, FaultInjector& faults);

  /// Attach the engine snapshot to the generation just published.
  void attach_payload(std::shared_ptr<void> payload);

  /// Mark the newest generation's cross-zone replica round complete (or
  /// abandoned), drawing replica torn-write faults per leg. Returns false
  /// when a forced replica failure abandons the round —
  /// the caller skips the replica transfer charge and counts the failure.
  bool complete_replica_round(FaultInjector& faults);

  /// Walk the manifest chain newest-to-oldest and return the first
  /// generation whose whole restore set verifies — falling back to
  /// generation 0 (initial) if every uploaded generation is bad. With
  /// `lost_zone` set, legs homed in that zone are unreadable at the
  /// primary and only a healthy replica can stand in. Returns nullopt only
  /// when the store is empty.
  std::optional<CkptRestorePlan> plan_restore(std::optional<std::uint32_t> lost_zone,
                                              FaultInjector& faults);

  /// Drop every generation newer than `seq` — called after a rollback
  /// restored `seq`, because the replay re-writes those rounds (the blobs
  /// would be overwritten in place; no delete op is priced).
  void truncate_after(std::uint64_t seq);

  /// Background scrub: verify every retained copy, repair bad ones from a
  /// surviving copy (generation payloads are the in-memory truth, so a
  /// repair is always possible; a fully-rotted leg re-uploads). The caller
  /// prices `repaired_bytes` and counts repairs.
  CkptScrubOutcome scrub(FaultInjector& faults);

  /// Generations currently visible, oldest first (gen 0 included).
  const std::vector<CkptGeneration>& generations() const noexcept { return chain_; }
  std::uint64_t rounds_attempted() const noexcept { return rounds_; }

 private:
  /// Is this copy of the leg readable right now (not torn, not rotted)?
  /// Draws-and-caches the keyed rot state.
  bool copy_ok(const CkptGeneration& gen, CkptLeg& leg, std::uint32_t copy,
               FaultInjector& faults) const;
  /// Indices into chain_ of the restore set of chain_[i]: its base through
  /// itself, oldest first ({i} itself when chain_[i] is a base or gen 0).
  std::vector<std::size_t> restore_set(std::size_t i) const;

  CkptOptions opts_;
  std::uint32_t partitions_ = 0;
  std::vector<CkptGeneration> chain_;  ///< visible generations, oldest first
  std::uint64_t next_seq_ = 1;         ///< publish serials (never reused)
  std::uint64_t rounds_ = 0;           ///< write rounds attempted (forced-fault key)
  std::uint32_t deltas_since_base_ = 0;
};

}  // namespace pregel::cloud
