// The Pregel++ BSP engine: a deterministic virtual-time simulation of the
// paper's Pregel.NET architecture (§III).
//
// The engine has two halves. EngineCore (core/engine_core.hpp, compiled
// once) is the job manager and the modeled cluster: the run loop, the
// control plane, modeled timing, the barrier (master step, swath
// scheduling, scaling, placement, migration planning and pricing,
// scale-in), checkpoints, failure recovery and the memory governor. It
// sees partitions only as PartitionMeta — vertex lists, counters, active
// lists, wakes — never a vertex value or a message. Engine<Program>, this
// file, is the vertex half: per-partition values and inbox arenas
// (core/inbox.hpp), compute, routing and the merges. It implements the
// core's hooks: run one superstep, run master_compute, inject a swath
// seed, snapshot/restore values and inboxes, and re-home them for a
// migration.
//
// Each superstep the template (1) drains every active vertex's inbox — a
// span of its partition's sealed inbox arena — through the program's
// compute(), (2) routes emitted messages — in-memory to vertices whose
// partition lives on the same worker VM, "bulk" serialized transfer to
// remote VMs — into each destination partition's arrival log, and counts
// per-partition load and bytes; the core then (3) meters per-VM
// compute/serialization/network/memory through the cloud CostModel and
// (4) runs the barrier.
//
// Partition compute runs on a persistent host thread pool
// (JobOptions::parallelism). The unit of work is a frontier chunk: a
// grain-sized slice [first, last) of a partition's sorted active list,
// which lanes drain — and steal from each other when a skewed frontier
// leaves some lanes dry. Chunks never touch shared engine state: every
// side effect (emissions, activations, wakes, aggregate contributions,
// counters) is staged in per-chunk scratch, and a deterministic merge —
// parallel across destination partitions, ordered by (sender rank,
// emission order) within each — applies routing, combining, activation,
// and cost counters. Results and modeled times are therefore bit-identical
// at any thread count and any steal schedule; only host wall-clock
// changes. Parallelism 1 runs the same chunk loop on one lane; there,
// unmigrated and in push mode, emissions are delivered as they are emitted
// (direct_route_), because one lane computes chunks in exactly the merge
// order.
// Program::compute must be thread-safe (const/stateless, as the contract
// below already implies).
//
// Programs that declare `kDirectionOptimized` additionally get Beamer-style
// direction optimization: when the modeled frontier is dense, a broadcast
// superstep runs in "pull" mode — send_to_all_neighbors captures one
// broadcast record per sender instead of materializing a staged message per
// out-edge, and each destination partition synthesizes its inbox by merging
// its in-neighbors' broadcasts (rank order) with any pointwise sends. The
// synthesized stream is the push stream, message for message, so the switch
// is invisible to results and metrics; the decision itself uses modeled
// density only and is part of the bit-identity contract.
//
// All computation on vertex values is real; only *time* and *memory* are
// modeled. Virtual time per superstep is
//     max over VMs (compute + network, each x tenancy noise x thrash penalty)
//     + barrier overhead(worker count),
// which is exactly the BSP execution model the paper analyzes: "the time
// taken in a superstep is determined by the slowest worker in that
// superstep".
//
// Program requirements (static duck typing, checked by concept + constexpr):
//   struct MyProgram {
//     using VertexValue = ...;   // default-constructible per-vertex state
//     using MessageValue = ...;  // message payload
//     template <class Ctx>
//     void compute(Ctx& ctx, VertexValue& value,
//                  std::span<const MessageValue> messages) const;
//     // optional:
//     static Bytes message_payload_bytes(const MessageValue&);
//     static std::uint64_t combine_key(const MessageValue&);
//     static void combine(MessageValue& acc, const MessageValue& in);
//     static MessageValue seed_message(VertexId root);   // root algorithms
//     template <class MCtx> void master_compute(MCtx& master) const;
//     std::int64_t vertex_state_bytes() const;  // resident per-vertex bytes
//   };
//
// Subgraph-centric programs (GoFFish / Giraph++-style; see docs/SUBGRAPH.md)
// declare `static constexpr bool kSubgraphModel = true;` and replace
// per-vertex compute() with a per-partition hook:
//   template <class Ctx> void compute_subgraph(Ctx& ctx) const;
// The engine then hands each partition ONE SubgraphContext per superstep —
// full local adjacency view, each local vertex's boundary messages (a span
// of the partition's sealed inbox arena), a staged boundary outbox, and the
// shared aggregator — and the program runs a sequential algorithm to local
// convergence before the barrier. Everything around compute is the same
// core: barriers, fault injection, checkpointing (the delta write barrier
// via state_unchanged_all/mark_changed), migration, the memory governor,
// and the scheduler all drive subgraph jobs exactly as vertex jobs.
// Boundary sends are tagged with the sender's immutable rank and merged in
// canonical (rank, emission) order through the same staged-outbox/rank-
// merge discipline, so results stay bit-identical at any parallelism.
// Internal sequential work is charged via ctx.charge_local_work()
// (CostParams::cycles_per_subgraph_op), keeping the barrier's
// active-vertex audit exact.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine_core.hpp"
#include "core/inbox.hpp"
#include "runtime/trace.hpp"
#include "util/buffers.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pregel {

template <typename P>
concept VertexProgramT = requires {
  typename P::VertexValue;
  typename P::MessageValue;
} && std::default_initializable<typename P::VertexValue>;

template <VertexProgramT Program>
class Engine;

/// Typed job outcome: the common report plus final vertex values by id.
template <VertexProgramT Program>
struct JobResult : JobReport {
  std::vector<typename Program::VertexValue> values;
};

/// Handed to Program::compute for each active vertex.
template <VertexProgramT Program>
class VertexContext {
 public:
  using MessageValue = typename Program::MessageValue;

  VertexId vertex_id() const noexcept { return vertex_; }
  std::uint64_t superstep() const noexcept { return engine_->superstep_; }
  std::span<const VertexId> out_neighbors() const {
    return engine_->graph_->out_neighbors(vertex_);
  }
  std::uint32_t out_degree() const { return engine_->graph_->out_degree(vertex_); }
  VertexId num_graph_vertices() const noexcept { return engine_->graph_->num_vertices(); }

  /// Emit a message for delivery at the start of the next superstep.
  void send(VertexId target, MessageValue message) {
    engine_->route(partition_, target, std::move(message), chunk_);
  }
  void send_to_all_neighbors(const MessageValue& message) {
    engine_->broadcast(partition_, vertex_, message, chunk_);
  }

  /// Stay active next superstep even without incoming messages
  /// (by default a vertex votes to halt when compute returns).
  void remain_active() { engine_->activate_from(chunk_, local_); }
  /// Request activation at an absolute future superstep (used by phase-
  /// structured algorithms such as the BC backward sweep).
  void wake_at(std::uint64_t superstep) {
    engine_->schedule_wake(chunk_, local_, superstep);
  }

  /// Contribute to a sum-aggregate readable by the master at this barrier
  /// and by all vertices next superstep.
  void aggregate(std::uint64_t key, double value) {
    engine_->aggregate_from(key, value, chunk_);
  }
  /// Read a master-broadcast global (or last superstep's aggregate).
  double global(std::uint64_t key, double fallback = 0.0) const {
    return engine_->globals_.get(key, fallback);
  }
  bool has_global(std::uint64_t key) const { return engine_->globals_.contains(key); }

  /// Account algorithm state growth/shrink at this vertex (modeled bytes;
  /// feeds the worker memory meter and thus the swath heuristics).
  void charge_state_bytes(std::int64_t delta) {
    engine_->charge_state(partition_, local_, delta, chunk_);
  }

  /// Declare a traversal root complete (root-scheduled algorithms).
  void mark_root_done(VertexId root) { engine_->root_done_from(root, chunk_); }

  /// Write-barrier hint for delta checkpoints: this compute left the vertex
  /// value bit-identical (a relaxation that didn't improve the distance, a
  /// converged PageRank update below tolerance), so the next delta leg need
  /// not carry it. Purely a sizing hint — a program that never calls it gets
  /// every computed vertex in the delta, the conservative default.
  void state_unchanged() noexcept { mutated_ = false; }

 private:
  friend class Engine<Program>;
  VertexContext(Engine<Program>* engine, std::uint32_t partition, std::uint32_t local,
                VertexId vertex, std::size_t chunk)
      : engine_(engine), partition_(partition), local_(local), vertex_(vertex),
        chunk_(chunk) {}

  Engine<Program>* engine_;
  std::uint32_t partition_;
  std::uint32_t local_;
  VertexId vertex_;
  std::size_t chunk_;
  bool mutated_ = true;
};

/// Handed to Program::compute_subgraph once per partition per superstep
/// (subgraph-centric programs only; docs/SUBGRAPH.md). The context exposes
/// the partition's full local view — vertex list, values, adjacency through
/// the shared graph, each local vertex's boundary messages, this
/// superstep's frontier — plus a staged boundary outbox and the shared
/// aggregator. All emissions are staged into the partition's chunk scratch
/// and merged in canonical order after the compute barrier, so results are
/// bit-identical at any parallelism and across migrations.
template <VertexProgramT Program>
class SubgraphContext {
 public:
  using MessageValue = typename Program::MessageValue;
  using VertexValue = typename Program::VertexValue;

  // ---- partition view ------------------------------------------------------

  std::uint32_t partition() const noexcept { return partition_; }
  std::uint64_t superstep() const noexcept { return engine_->superstep_; }
  VertexId num_graph_vertices() const noexcept { return engine_->graph_->num_vertices(); }

  /// Global ids of this partition's vertices, ascending. Local index ==
  /// position in this span.
  std::span<const VertexId> vertices() const {
    return engine_->parts_[partition_].vertices;
  }
  std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(engine_->parts_[partition_].vertices.size());
  }
  VertexId vertex_at(std::uint32_t local) const {
    return engine_->parts_[partition_].vertices[local];
  }
  bool is_local(VertexId v) const { return engine_->part_of_[v] == partition_; }
  /// Local index of a vertex currently homed in this partition.
  std::uint32_t local_of(VertexId v) const { return engine_->local_of_[v]; }
  VertexValue& value(std::uint32_t local) {
    return engine_->data_[partition_].values[local];
  }
  const VertexValue& value(std::uint32_t local) const {
    return engine_->data_[partition_].values[local];
  }

  /// Full adjacency of any vertex (local or boundary remote endpoint).
  std::span<const VertexId> out_neighbors(VertexId v) const {
    return engine_->graph_->out_neighbors(v);
  }
  std::uint32_t out_degree(VertexId v) const { return engine_->graph_->out_degree(v); }

  /// Immutable per-run serial rank of a vertex (partition-major over the
  /// initial assignment). Boundary messages arrive in ascending sender rank;
  /// order-sensitive reductions key on it for bit-identity.
  std::uint32_t rank_of(VertexId v) const { return engine_->rank_of_[v]; }

  // ---- frontier and inboxes ------------------------------------------------

  /// Locals active this superstep (deterministically sorted). Every local
  /// with a non-empty inbox is in here.
  std::span<const std::uint32_t> active_locals() const {
    return engine_->parts_[partition_].active_cur;
  }
  /// Boundary/seed messages delivered to a local vertex this superstep, in
  /// ascending sender-rank order.
  std::span<const MessageValue> messages(std::uint32_t local) const {
    return engine_->data_[partition_].inbox.messages(local);
  }

  // ---- boundary outbox and activation -------------------------------------

  /// Emit a boundary message on behalf of local vertex `from` for delivery
  /// at the start of the next superstep (any target, though subgraph
  /// programs typically send only across the cut — internal updates are
  /// applied in place).
  void send(VertexId from, VertexId target, MessageValue message) {
    PREGEL_DCHECK(target < engine_->graph_->num_vertices());
    auto& cs = engine_->chunk_scratch_[partition_];
    const std::uint32_t tp = engine_->part_of_[target];
    const std::uint32_t tl = engine_->local_of_[target];
    cs.out[tp].push_back(typename Engine<Program>::StagedMessage{
        tl, engine_->rank_of_[from],
        static_cast<std::uint8_t>(engine_->placement_[engine_->orig_part_[from]]),
        cs.emit_seq++, std::move(message)});
  }

  /// Keep a local vertex active next superstep without sending it a message.
  void remain_active(std::uint32_t local) {
    engine_->chunk_scratch_[partition_].activations.push_back(local);
  }
  /// Request activation of a local vertex at an absolute future superstep.
  void wake_at(std::uint32_t local, std::uint64_t superstep) {
    engine_->chunk_scratch_[partition_].wakes.push_back({superstep, local});
  }

  // ---- aggregation / globals ----------------------------------------------

  /// Contribute to a sum-aggregate on behalf of local vertex `as` (the rank
  /// tag keeps barrier replay order migration-invariant). A non-local `as`
  /// may tie with another partition's entries; ties replay in partition
  /// order, which a migration can change.
  void aggregate(VertexId as, std::uint64_t key, double value) {
    engine_->chunk_scratch_[partition_].aggs.push_back(
        {engine_->rank_of_[as], key, value});
  }
  double global(std::uint64_t key, double fallback = 0.0) const {
    return engine_->globals_.get(key, fallback);
  }
  bool has_global(std::uint64_t key) const { return engine_->globals_.contains(key); }

  // ---- accounting ----------------------------------------------------------

  /// Charge `ops` units of internal sequential work (one relaxation, one
  /// union-find step, one rank update). Priced at
  /// CostParams::cycles_per_subgraph_op — far below a full vertex dispatch,
  /// which is the subgraph model's whole bet.
  void charge_local_work(std::uint64_t ops) {
    engine_->chunk_scratch_[partition_].load.subgraph_ops += ops;
  }
  /// Account algorithm state growth/shrink at a local vertex (modeled bytes).
  void charge_state_bytes(std::uint32_t local, std::int64_t delta) {
    engine_->charge_state(partition_, local, delta, partition_);
  }
  /// Declare a traversal root complete (root-scheduled algorithms).
  void mark_root_done(VertexId root) {
    engine_->chunk_scratch_[partition_].roots.push_back(
        {engine_->rank_of_[root], root});
  }

  // ---- delta-checkpoint write barrier -------------------------------------

  /// Opt in to precise dirty tracking for this call: only locals passed to
  /// mark_changed() afterwards enter the next delta leg. Without this call
  /// every active local is conservatively marked dirty.
  void state_unchanged_all() noexcept { unchanged_all_ = true; }
  void mark_changed(std::uint32_t local) { changed_.push_back(local); }

 private:
  friend class Engine<Program>;
  SubgraphContext(Engine<Program>* engine, std::uint32_t partition)
      : engine_(engine), partition_(partition) {}

  Engine<Program>* engine_;
  std::uint32_t partition_;
  bool unchanged_all_ = false;
  std::vector<std::uint32_t> changed_;
};

/// Handed to Program::master_compute at each barrier (GPS-style master task).
template <VertexProgramT Program>
class MasterContext {
 public:
  std::uint64_t superstep() const noexcept { return engine_->superstep_; }
  const Aggregates& aggregates() const noexcept { return engine_->agg_cur_; }
  Globals& globals() noexcept { return engine_->globals_next_; }
  /// Roots initiated and not yet completed, in initiation order. The
  /// reference is invalidated by mark_root_done (collect first, then mark).
  const std::vector<VertexId>& active_roots() const {
    return engine_->active_roots();
  }
  void mark_root_done(VertexId root) { engine_->mark_root_done(root); }
  void request_halt() { engine_->halt_requested_ = true; }
  std::uint64_t active_vertices() const noexcept { return engine_->last_active_vertices_; }
  VertexId num_graph_vertices() const noexcept { return engine_->graph_->num_vertices(); }

 private:
  friend class Engine<Program>;
  explicit MasterContext(Engine<Program>* engine) : engine_(engine) {}
  Engine<Program>* engine_;
};

template <VertexProgramT Program>
class Engine final : public EngineCore {
 public:
  using V = typename Program::VertexValue;
  using M = typename Program::MessageValue;

  /// The graph and partitioning must outlive the engine.
  Engine(const Graph& graph, Program program, ClusterConfig cluster,
         const Partitioning& partitioning)
      : EngineCore(graph, std::move(cluster), partitioning,
                   ProgramTraits{sizeof(V), has_seed_message()}),
        program_(std::move(program)) {}

  JobResult<Program> run(const JobOptions& opts) {
    trace::Span job_span("engine.run", "engine");
    JobResult<Program> result;
    if (start(opts, result)) {
      while (advance(result) == StepStatus::kRunning) {
      }
    }
    finish(result);
    return result;
  }

  /// Collect the final values and cost totals into `result`. Idempotent;
  /// the classic run() calls it once after the loop drains.
  void finish(JobResult<Program>& result) {
    result.values.resize(graph_->num_vertices());
    for (std::size_t p = 0; p < parts_.size(); ++p)
      for (std::uint32_t l = 0; l < parts_[p].vertices.size(); ++l)
        result.values[parts_[p].vertices[l]] = data_[p].values[l];
    collect_report(result);
  }

 private:
  friend class VertexContext<Program>;
  friend class SubgraphContext<Program>;
  friend class MasterContext<Program>;

  // ---- static program-trait helpers --------------------------------------

  static Bytes payload_bytes(const M& m) {
    if constexpr (requires(const M& x) {
                    { Program::message_payload_bytes(x) } -> std::convertible_to<Bytes>;
                  }) {
      return Program::message_payload_bytes(m);
    } else {
      return sizeof(M);
    }
  }

  static constexpr bool has_combiner() {
    return requires(M& a, const M& b) {
      { Program::combine_key(b) } -> std::convertible_to<std::uint64_t>;
      Program::combine(a, b);
    };
  }

  static constexpr bool has_seed_message() {
    return requires(VertexId r) {
      { Program::seed_message(r) } -> std::convertible_to<M>;
    };
  }

  /// Whether the program opted into direction optimization
  /// (`static constexpr bool kDirectionOptimized = true;`).
  static constexpr bool direction_capable() {
    if constexpr (requires { Program::kDirectionOptimized; })
      return static_cast<bool>(Program::kDirectionOptimized);
    else
      return false;
  }

  /// Whether the program is subgraph-centric
  /// (`static constexpr bool kSubgraphModel = true;` + compute_subgraph()).
  /// The if-constexpr dispatch in run_superstep() means vertex-path
  /// members that call program_.compute never instantiate for subgraph
  /// programs, and compute_subgraph is never required of vertex programs.
  static constexpr bool subgraph_model() {
    if constexpr (requires { Program::kSubgraphModel; })
      return static_cast<bool>(Program::kSubgraphModel);
    else
      return false;
  }

  // ---- per-partition state ------------------------------------------------

  /// The typed half of a partition; its metadata is parts_[p] in the core.
  struct PartitionData {
    std::vector<V> values;  ///< by local index
    /// Next superstep's messages as an arrival log, this superstep's sealed
    /// into a CSR arena at the start of the superstep (core/inbox.hpp).
    /// Combiner chains run only while a combiner is active: a Pregel
    /// combiner is sender-side, so only messages that left the same worker
    /// may merge.
    InboxArena<M> inbox;
  };

  /// One emission captured during staged compute, pending the deterministic
  /// merge (destination partition is the scratch row index; emission order
  /// is the vector order). sender_rank is the sender's immutable global
  /// serial rank — after a migration the merge keys on it to reproduce the
  /// unmigrated delivery order exactly; combine_src is the sender-side
  /// combining domain captured at emission time; seq numbers the sender's
  /// emissions within its compute() call so a pull-mode merge can interleave
  /// broadcast and pointwise emissions exactly as push would.
  struct StagedMessage {
    std::uint32_t target_local;
    std::uint32_t sender_rank;
    std::uint8_t combine_src;
    std::uint32_t seq;
    M message;
  };

  /// A staged pointwise send queued for a pull-mode merge, with its source
  /// partition.
  struct PullSend {
    StagedMessage* s = nullptr;
    std::uint32_t src = 0;
  };

  /// Aggregate contribution / root completion captured during staged
  /// compute; `rank` is the emitting vertex's serial rank so the barrier
  /// replay can reproduce the serial order even after a migration.
  struct StagedAgg {
    std::uint32_t rank;
    std::uint64_t key;
    double value;
  };
  struct StagedRootDone {
    std::uint32_t rank;
    VertexId root;
  };

  /// Source-side counters a destination's merge accumulates on behalf of a
  /// source partition; folded back (order-free integer sums) after the merge
  /// barrier.
  struct SendScratch {
    cloud::WorkerLoad load;
    Bytes outbuf_bytes = 0;
  };

  /// One unit of stealable work: the slice [first, last) of a partition's
  /// sorted active list (active_cur).
  struct ChunkRef {
    std::uint32_t partition;
    std::uint32_t first;
    std::uint32_t last;
  };

  /// Everything a chunk's compute produces, staged thread-locally and folded
  /// back in deterministic (partition-major, slice-order) sequence after the
  /// compute barrier. Chunks of the same partition never run concurrently
  /// with that partition's merge, so nothing here needs synchronization.
  struct ChunkScratch {
    std::vector<std::vector<StagedMessage>> out;  ///< by destination partition
    std::vector<StagedAgg> aggs;
    std::vector<StagedRootDone> roots;
    std::vector<std::uint32_t> activations;  ///< locals of this chunk's partition
    std::vector<std::pair<std::uint64_t, std::uint32_t>> wakes;  ///< (at, local)
    std::vector<VertexId> broadcasters;  ///< senders with pull-mode records
    cloud::WorkerLoad load;
    Bytes drained_bytes = 0;
    std::int64_t state_delta = 0;
    /// Rank / combiner source / emission counter of the vertex currently in
    /// compute() — reset per vertex so route() can tag emissions cheaply.
    std::uint32_t computing_rank = 0;
    std::uint8_t computing_src = 0;
    std::uint32_t emit_seq = 0;
  };

  // ---- EngineCore hooks ----------------------------------------------------

  void reset_partition_data() override {
    opts_combine_ = has_combiner() && opts_.use_combiner;
    data_.resize(parts_.size());
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      const auto pn = static_cast<std::uint32_t>(parts_[p].vertices.size());
      data_[p].values.assign(pn, V{});
      data_[p].inbox.reset(pn, opts_combine_);
    }

    // Host-parallelism: resolve the lane count and the frontier grain.
    // The pool persists across runs when the resolved width is unchanged.
    const std::uint32_t requested =
        opts_.parallelism == 0 ? ThreadPool::hardware_threads() : opts_.parallelism;
    threads_ = std::min<std::uint32_t>(std::max<std::uint32_t>(requested, 1),
                                       static_cast<std::uint32_t>(parts_.size()));
    if (threads_ > 1) {
      if (!pool_ || pool_->size() != threads_) pool_ = std::make_unique<ThreadPool>(threads_);
    } else {
      pool_.reset();
    }
    grain_ = opts_.frontier_grain == 0 ? kDefaultFrontierGrain : opts_.frontier_grain;
    chunks_.clear();
    chunk_scratch_.clear();
    part_chunk_range_.assign(parts_.size(), {0, 0});
    direction_enabled_ =
        direction_capable() && opts_.direction.mode != DirectionOptions::Mode::kOff;
    pull_mode_ = pull_this_step_ = false;
    if (direction_enabled_) {
      broadcast_store_.assign(graph_->num_vertices(), {});
      pull_sends_.resize(parts_.size());
    } else {
      broadcast_store_.clear();
      pull_sends_.clear();
    }
    send_scratch_.assign(parts_.size() * parts_.size(), {});
  }

  /// One superstep: seal every partition's arrival log into the arena
  /// compute reads (on the pool at more than one lane), pick push or pull,
  /// then compute and merge.
  void run_superstep(SuperstepMetrics& sm) override {
    for_each_partition([this](std::size_t p) { data_[p].inbox.seal(); });
    pull_this_step_ = false;
    if (direction_enabled_) {
      decide_direction();
      if (pull_this_step_ && !pull_index_built_) build_pull_index();
    }
    direct_route_ = threads_ == 1 && !migrated_ && !pull_this_step_;
    if constexpr (subgraph_model()) {
      execute_superstep_subgraph();
    } else {
      const ThreadPool::StealOutcome steals = execute_superstep_staged();
      sm.steals = steals.steals;
      sm.stolen_chunks = steals.stolen_items;
    }
    sm.pull_mode = pull_this_step_;
  }

  void master_compute() override {
    if constexpr (requires(Program & pr, MasterContext<Program> & mc) {
                    pr.master_compute(mc);
                  }) {
      MasterContext<Program> mc(this);
      program_.master_compute(mc);
    }
  }

  void inject_seed(VertexId root) override {
    if constexpr (has_seed_message()) {
      M seed = Program::seed_message(root);
      const std::uint32_t p = part_of_[root];
      const std::uint32_t l = local_of_[root];
      parts_[p].inbox_next_bytes += cost_.buffered_bytes(payload_bytes(seed));
      // Seeds carry the manager's sentinel source domain (kSeedSource): the
      // sender-side combining model keys sources by uint8_t VM id, so worker
      // messages never merge into a seed and vice versa.
      data_[p].inbox.append(l, std::move(seed), kSeedSource);
      activate_local(p, l);
    }
  }

  std::shared_ptr<const void> snapshot_partition_data() const override {
    return std::make_shared<const std::vector<PartitionData>>(data_);
  }

  void restore_partition_data(const void* payload) override {
    data_ = *static_cast<const std::vector<PartitionData>*>(payload);
    // The direction hysteresis restarts from push after any rollback so the
    // replayed supersteps re-derive the same switch sequence the original
    // execution did (the state at checkpoint time is itself a pure function
    // of the replayed frontier densities).
    pull_mode_ = false;
  }

  /// At a barrier every sealed arena is drained: one pass over the donor's
  /// arrival log prices its movers' buffered messages.
  void add_inbox_bytes(PartitionId p, std::span<const std::uint32_t> move_of,
                       std::vector<VertexMoveCost>& moves) const override {
    const InboxArena<M>& inbox = data_[p].inbox;
    PREGEL_DCHECK(inbox.drained());
    for (std::size_t i = 0; i < inbox.arrivals(); ++i) {
      const std::uint32_t k = move_of[inbox.arrival_local(i)];
      if (k != std::numeric_limits<std::uint32_t>::max())
        moves[k].bytes += cost_.buffered_bytes(payload_bytes(inbox.arrival(i)));
    }
  }

  /// Each moved vertex carries its value and its buffered messages (with
  /// their combiner source domains). Messages are re-homed in log order:
  /// each vertex's messages come from one old log, so its own arrival
  /// order, and with it its sealed inbox, is unchanged.
  void move_partition_data(
      std::span<const PartitionId> affected,
      const std::vector<std::vector<std::pair<PartitionId, std::uint32_t>>>& source,
      const std::unordered_map<PartitionId, PartitionMeta>& old) override {
    std::unordered_map<PartitionId, PartitionData> od;
    for (const PartitionId p : affected) od[p] = std::move(data_[p]);
    for (std::size_t i = 0; i < affected.size(); ++i) {
      const auto pn = static_cast<std::uint32_t>(source[i].size());
      PartitionData nd;
      nd.values.resize(pn);
      nd.inbox.reset(pn, opts_combine_);
      for (std::uint32_t nl = 0; nl < pn; ++nl) {
        const auto [op, ol] = source[i][nl];
        nd.values[nl] = std::move(od.at(op).values[ol]);
      }
      data_[affected[i]] = std::move(nd);
    }
    for (const PartitionId p : affected) {
      InboxArena<M>& inbox = od.at(p).inbox;
      const std::vector<VertexId>& old_vertices = old.at(p).vertices;
      PREGEL_DCHECK(inbox.drained());
      for (std::size_t i = 0; i < inbox.arrivals(); ++i) {
        M& m = inbox.arrival(i);
        const VertexId v = old_vertices[inbox.arrival_local(i)];
        parts_[part_of_[v]].inbox_next_bytes += cost_.buffered_bytes(payload_bytes(m));
        data_[part_of_[v]].inbox.append(local_of_[v], std::move(m), inbox.arrival_src(i));
      }
    }
  }

  /// Cut each partition's sorted active list at multiples of the grain and
  /// enumerate the slices as chunks — partition-major, slice order — so
  /// "chunk index order" is exactly serial visit order.
  void build_frontier_chunks() {
    chunks_.clear();
    const std::size_t n = parts_.size();
    for (std::uint32_t p = 0; p < n; ++p) {
      const std::size_t active = parts_[p].active_cur.size();
      const auto first_chunk = static_cast<std::uint32_t>(chunks_.size());
      for (std::size_t first = 0; first < active; first += grain_)
        chunks_.push_back(ChunkRef{p, static_cast<std::uint32_t>(first),
                                   static_cast<std::uint32_t>(std::min(first + grain_, active))});
      part_chunk_range_[p] = {first_chunk, static_cast<std::uint32_t>(chunks_.size())};
    }
    reset_chunk_scratch(chunks_.size());
  }

  /// Ready the first `count` chunk scratch slots for a superstep; slots are
  /// reused across supersteps (cleared, not reallocated).
  void reset_chunk_scratch(std::size_t count) {
    if (chunk_scratch_.size() < count) chunk_scratch_.resize(count);
    for (std::size_t c = 0; c < count; ++c) {
      ChunkScratch& cs = chunk_scratch_[c];
      cs.out.resize(parts_.size());
      cs.load = {};
      cs.drained_bytes = 0;
      cs.state_delta = 0;
      cs.emit_seq = 0;
    }
  }

  /// Drain one frontier chunk through compute(), staging every side effect
  /// in the chunk's scratch. Chunks write only their own scratch, their own
  /// vertices' values (disjoint: a vertex is in exactly one slice), and
  /// per-vertex state_bytes_v slots, and read the sealed inbox arena — so
  /// any lane may run any chunk.
  void compute_chunk(std::size_t c) {
    const ChunkRef ref = chunks_[c];
    trace::Span span("engine.compute", "superstep", "part", ref.partition, "chunk", c);
    PartitionMeta& ps = parts_[ref.partition];
    PartitionData& pd = data_[ref.partition];
    ChunkScratch& cs = chunk_scratch_[c];
    for (std::uint32_t l : std::span(ps.active_cur).subspan(ref.first, ref.last - ref.first)) {
      // Tag emissions with the sender's immutable rank and its combining
      // domain. The domain is the VM of the vertex's *original* partition:
      // identical to vm_of(p) while unmigrated, and invariant under
      // migration so combiner groupings never change with the plan.
      cs.computing_rank = rank_of_[ps.vertices[l]];
      cs.computing_src = static_cast<std::uint8_t>(placement_[orig_part_[ps.vertices[l]]]);
      cs.emit_seq = 0;
      VertexContext<Program> ctx(this, ref.partition, l, ps.vertices[l], c);
      const std::span<const M> box = pd.inbox.messages(l);
      ++cs.load.vertices_computed;
      cs.load.messages_processed += box.size();
      program_.compute(ctx, pd.values[l], box);
      // Safe unstaged: dirty is per-vertex and a vertex lives in exactly
      // one chunk, so concurrent chunks write disjoint bytes.
      if (track_dirty_ && ctx.mutated_) ps.dirty[l] = 1;
      for (const M& m : box) cs.drained_bytes += cost_.buffered_bytes(payload_bytes(m));
    }
  }

  /// Activations and wakes staged by partition q's own chunks, applied by
  /// q's merge task (single-threaded per destination) in chunk order. Both
  /// are order-insensitive — activation dedupes through the bitmap and the
  /// active list is sorted next superstep; wakes are merged through the same
  /// bitmap when their superstep arrives — but chunk order keeps the raw
  /// vectors deterministic anyway.
  void apply_chunk_side_effects(std::uint32_t q) {
    const auto [first, last] = part_chunk_range_[q];
    for (std::uint32_t c = first; c < last; ++c) {
      ChunkScratch& cs = chunk_scratch_[c];
      for (std::uint32_t l : cs.activations) activate_local(q, l);
      cs.activations.clear();
      for (const auto& [at, l] : cs.wakes) parts_[q].wakes[at].push_back(l);
      cs.wakes.clear();
    }
  }

  /// Apply every staged message addressed to partition q (plus q's own
  /// staged activations/wakes) in ascending sender rank — the order one lane
  /// walking the partitions would have delivered them in, so inbox contents
  /// (and combiner merges) are bit-identical at any lane count and after any
  /// migration. Source-side counters go to this destination's scratch row;
  /// they cannot be written to the source partitions here because another
  /// merge thread may own them.
  void merge_destination(std::uint32_t q) {
    trace::Span span("engine.merge", "superstep", "part", q);
    apply_chunk_side_effects(q);
    std::size_t staged = 0;
    for (std::size_t c = 0; c < chunks_.size(); ++c) staged += chunk_scratch_[c].out[q].size();
    if (pull_this_step_) {
      merge_destination_pull(q, staged);
    } else {
      const std::size_t n = parts_.size();
      data_[q].inbox.reserve(staged);
      rank_merge(
          [this, q](std::uint32_t c) -> std::vector<StagedMessage>& {
            return chunk_scratch_[c].out[q];
          },
          [](const StagedMessage& s) { return s.sender_rank; },
          [this, q, n](std::uint32_t src, StagedMessage& s) {
            SendScratch& acc = send_scratch_[q * n + src];
            deliver(src, q, s.target_local, std::move(s.message), acc.load, acc.outbuf_bytes,
                    s.combine_src);
          });
    }
    for (std::size_t c = 0; c < chunks_.size(); ++c) shrink_after_drain(chunk_scratch_[c].out[q]);
  }

  /// K-way merge by rank of one per-chunk log (`row_of(chunk)`) across the
  /// source partitions, calling `apply(source, entry)` in ascending rank.
  /// Each source's concatenated chunk rows are rank-sorted (compute walks
  /// actives in rank order and chunks follow slice order), so the best source
  /// drains until its head rank passes the runner-up's.
  /// Unmigrated, ranks are partition-major: each source drains in a single
  /// pass, which is the plain source-by-source loop at its cost.
  template <class RowOf, class RankOf, class Apply>
  void rank_merge(RowOf&& row_of, RankOf&& rank_of, Apply&& apply) {
    using Entry = std::remove_reference_t<decltype(row_of(std::uint32_t{0})[0])>;
    const std::uint32_t n = static_cast<std::uint32_t>(parts_.size());
    struct Cursor {
      std::uint32_t chunk;
      std::size_t pos;
    };
    std::vector<Cursor> cur(n);
    for (std::uint32_t p = 0; p < n; ++p) cur[p] = {part_chunk_range_[p].first, 0};
    const auto head = [&](std::uint32_t p) -> Entry* {
      Cursor& c = cur[p];
      for (; c.chunk < part_chunk_range_[p].second; ++c.chunk, c.pos = 0) {
        auto& row = row_of(c.chunk);
        if (c.pos < row.size()) return &row[c.pos];
      }
      return nullptr;
    };
    for (;;) {
      std::uint32_t best = n, best_rank = 0;
      std::uint64_t runner_up_rank = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t p = 0; p < n; ++p) {
        const Entry* h = head(p);
        if (h == nullptr) continue;
        const std::uint32_t r = rank_of(*h);
        if (best == n || r < best_rank) {
          if (best != n) runner_up_rank = best_rank;
          best = p;
          best_rank = r;
        } else if (r < runner_up_rank) {
          runner_up_rank = r;
        }
      }
      if (best == n) return;
      // Drain through ties: a rank can repeat across sources when an entry is
      // tagged with another partition's vertex (a subgraph program finishing
      // a shared root), and the lower source — always `best` on a tie — goes
      // first, as in partition order.
      Cursor& c = cur[best];
      for (Entry* h = head(best); h != nullptr && rank_of(*h) <= runner_up_rank;
           h = head(best)) {
        auto& row = row_of(c.chunk);
        do apply(best, row[c.pos++]);
        while (c.pos < row.size() && rank_of(row[c.pos]) <= runner_up_rank);
      }
    }
  }

  /// Pull-mode merge for destination q: synthesize the push message stream
  /// per target from (a) pointwise staged sends and (b) the in-neighbors'
  /// broadcast records, merged by (sender rank, emission seq). Only the
  /// per-target relative order is observable downstream (inbox contents,
  /// combiner scans; all cross-target effects are order-free sums or
  /// deduped sets), and within one sender the emissions to a given target
  /// appear in call order under both schemes — so the synthesized stream
  /// matches push message for message. The rank merge yields the pointwise
  /// sends in (rank, seq) order and the seal's stable counting sort groups
  /// them by target, so each target's sends come out (rank, seq)-sorted in
  /// O(sends). Parallel edges: a broadcast record is delivered once per
  /// adjacent duplicate in the in-neighbor list (record-major, exactly the
  /// per-target order the push loop produces).
  void merge_destination_pull(std::uint32_t q, std::size_t staged) {
    const std::size_t n = parts_.size();
    const PartitionMeta& dst = parts_[q];
    // Size the log for every delivery up front (an upper bound under a
    // combiner): one pass over q's in-edges, far fewer than the deliveries.
    std::size_t deliveries = staged;
    for (const VertexId gu : dst.vertices)
      for (std::size_t e = pull_off_[gu]; e < pull_off_[gu + 1]; ++e)
        deliveries += broadcast_store_[pull_src_[e]].size();
    data_[q].inbox.reserve(deliveries);
    InboxArena<PullSend>& sends = pull_sends_[q];
    sends.reset(static_cast<std::uint32_t>(dst.vertices.size()), false);
    rank_merge(
        [this, q](std::uint32_t c) -> std::vector<StagedMessage>& {
          return chunk_scratch_[c].out[q];
        },
        [](const StagedMessage& s) { return s.sender_rank; },
        [&sends](std::uint32_t src, StagedMessage& s) {
          sends.append(s.target_local, PullSend{&s, src});
        });
    sends.seal();

    for (std::uint32_t u = 0; u < dst.vertices.size(); ++u) {
      const std::span<const PullSend> mine = sends.messages(u);
      std::size_t pi = 0;
      const VertexId gu = dst.vertices[u];
      std::size_t ei = pull_off_[gu];
      const std::size_t ie = pull_off_[gu + 1];
      std::size_t ri = 0;  // record index within the current broadcast group
      const auto skip_silent = [&] {
        while (ei < ie && broadcast_store_[pull_src_[ei]].empty()) {
          const VertexId w = pull_src_[ei];
          do ++ei;
          while (ei < ie && pull_src_[ei] == w);
        }
      };
      skip_silent();
      while (pi < mine.size() || ei < ie) {
        bool take_pending;
        if (pi >= mine.size()) {
          take_pending = false;
        } else if (ei >= ie) {
          take_pending = true;
        } else {
          const VertexId w = pull_src_[ei];
          take_pending = std::pair(mine[pi].s->sender_rank, mine[pi].s->seq) <
                         std::pair(rank_of_[w], broadcast_store_[w][ri].first);
        }
        if (take_pending) {
          const PullSend& send = mine[pi++];
          SendScratch& acc = send_scratch_[q * n + send.src];
          deliver(send.src, q, u, std::move(send.s->message), acc.load, acc.outbuf_bytes,
                  send.s->combine_src);
        } else {
          const VertexId w = pull_src_[ei];
          const auto& recs = broadcast_store_[w];
          std::size_t k = 1;  // parallel-edge multiplicity (duplicates adjacent)
          while (ei + k < ie && pull_src_[ei + k] == w) ++k;
          const std::uint32_t sp = part_of_[w];
          SendScratch& acc = send_scratch_[q * n + sp];
          const std::uint8_t csrc = static_cast<std::uint8_t>(placement_[orig_part_[w]]);
          for (std::size_t j = 0; j < k; ++j)
            deliver(sp, q, u, M(recs[ri].second), acc.load, acc.outbuf_bytes, csrc);
          if (++ri >= recs.size()) {
            ei += k;
            ri = 0;
            skip_silent();
          }
        }
      }
    }
    sends.drain();
  }

  /// Run `f(p)` for every partition index — on the pool when one exists,
  /// serially otherwise.
  template <class F>
  void for_each_partition(F&& f) {
    if (pool_)
      pool_->parallel_for(parts_.size(), std::forward<F>(f));
    else
      for (std::size_t i = 0; i < parts_.size(); ++i) f(i);
  }

  /// Compute + route for one vertex-centric superstep. Two barriers: (1)
  /// every frontier chunk computes with its side effects staged in its
  /// scratch — on the pool, lanes start on their home partitions' chunk
  /// queues and steal from the heaviest remaining queue when they run dry;
  /// (2) every destination partition applies its staged messages
  /// single-threaded in rank order (merge_and_replay). One lane runs the
  /// same chunks in chunk (= serial visit) order, so with direct_route_ its
  /// messages are delivered as they are emitted instead of staged. Which
  /// lane drained which chunk is unobservable outside wall clock and the
  /// steal counters.
  ThreadPool::StealOutcome execute_superstep_staged() {
    build_frontier_chunks();
    ThreadPool::StealOutcome steals{};
    if (pool_ && chunks_.size() > 1) {
      std::vector<std::vector<std::size_t>> queues(pool_->size());
      for (std::size_t c = 0; c < chunks_.size(); ++c)
        queues[chunks_[c].partition % pool_->size()].push_back(c);
      steals = pool_->parallel_steal(std::move(queues),
                                     [this](std::size_t c) { compute_chunk(c); });
    } else {
      for (std::size_t c = 0; c < chunks_.size(); ++c) compute_chunk(c);
    }
    merge_and_replay();
    if (pull_this_step_) clear_broadcast_records();
    return steals;
  }

  /// The superstep tail both programming models share: fold chunk-local
  /// partition counters back in chunk order (integer sums), retire the
  /// drained arenas, merge every destination, fold the per-(destination x
  /// source) send counters back into their source partitions (order-free
  /// integer sums), then replay the aggregate / root logs in rank order.
  void merge_and_replay() {
    const std::size_t n = parts_.size();
    for (std::uint32_t p = 0; p < n; ++p) {
      PartitionMeta& ps = parts_[p];
      const auto [first, last] = part_chunk_range_[p];
      Bytes drained = 0;
      for (std::uint32_t c = first; c < last; ++c) {
        const ChunkScratch& cs = chunk_scratch_[c];
        ps.load += cs.load;
        drained += cs.drained_bytes;
        ps.state_bytes += cs.state_delta;
      }
      // Every sealed message belongs to an active vertex (delivery and seed
      // injection activate their target), so compute drains each exactly once.
      PREGEL_CHECK_MSG(drained == ps.inbox_cur_bytes, "inbox byte counter out of balance");
      ps.inbox_cur_bytes = 0;
      data_[p].inbox.drain();
    }

    for_each_partition([this](std::size_t q) {
      merge_destination(static_cast<std::uint32_t>(q));
    });

    for (std::uint32_t p = 0; p < n; ++p) {
      PartitionMeta& ps = parts_[p];
      for (std::uint32_t q = 0; q < n; ++q) {
        SendScratch& acc = send_scratch_[q * n + p];
        ps.load += acc.load;
        ps.outbuf_bytes += acc.outbuf_bytes;
        acc = {};
      }
    }
    replay_staged_logs();
  }

  /// Drop this superstep's pull-mode broadcast records, releasing large
  /// stores under the same drain-shrink policy as the inboxes.
  void clear_broadcast_records() {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      ChunkScratch& cs = chunk_scratch_[c];
      for (const VertexId v : cs.broadcasters) shrink_after_drain(broadcast_store_[v]);
      cs.broadcasters.clear();
    }
  }

  // ---- subgraph-centric execution (docs/SUBGRAPH.md) ----------------------

  /// One chunk per partition: chunk index == partition index, so the staged
  /// merge, the counter folds, and the log replays all see the exact shape
  /// the vertex-centric staged path produces, with slice order degenerate.
  void setup_subgraph_chunks() {
    const std::size_t n = parts_.size();
    chunks_.clear();
    for (std::uint32_t p = 0; p < n; ++p) {
      part_chunk_range_[p] = {p, p + 1};
      chunks_.push_back(ChunkRef{p, 0, 0});
    }
    reset_chunk_scratch(n);
  }

  /// Hand one whole partition to the program, then establish the canonical
  /// outbox order: every staged row sorted by (sender rank, emission seq).
  /// seq is unique per chunk, so the sort is a total order independent of
  /// emission interleaving; the rank merge then delivers every inbox in
  /// ascending sender rank — subgraph delivery order is migration-invariant.
  void compute_subgraph_partition(std::uint32_t p) {
    PartitionMeta& ps = parts_[p];
    if (ps.active_cur.empty()) return;
    trace::Span span("engine.compute", "superstep", "part", p);
    ChunkScratch& cs = chunk_scratch_[p];
    cs.load.vertices_computed += ps.active_cur.size();
    // The program reads the frontier's sealed inboxes (every message's
    // target is active — delivery activates it), draining them all.
    for (const std::uint32_t l : ps.active_cur) {
      const std::span<const M> box = data_[p].inbox.messages(l);
      cs.load.messages_processed += box.size();
      for (const M& m : box) cs.drained_bytes += cost_.buffered_bytes(payload_bytes(m));
    }

    SubgraphContext<Program> ctx(this, p);
    program_.compute_subgraph(ctx);

    if (track_dirty_) {
      if (ctx.unchanged_all_) {
        for (const std::uint32_t l : ctx.changed_) ps.dirty[l] = 1;
      } else {
        // Conservative default, mirroring the vertex path's mutated_ = true.
        for (const std::uint32_t l : ps.active_cur) ps.dirty[l] = 1;
      }
    }

    for (auto& row : cs.out)
      std::sort(row.begin(), row.end(),
                [](const StagedMessage& a, const StagedMessage& b) {
                  return a.sender_rank != b.sender_rank ? a.sender_rank < b.sender_rank
                                                        : a.seq < b.seq;
                });
    std::stable_sort(cs.aggs.begin(), cs.aggs.end(),
                     [](const StagedAgg& a, const StagedAgg& b) { return a.rank < b.rank; });
    std::stable_sort(
        cs.roots.begin(), cs.roots.end(),
        [](const StagedRootDone& a, const StagedRootDone& b) { return a.rank < b.rank; });
  }

  /// The subgraph-centric superstep: compute every partition (in parallel —
  /// each stages into its own scratch), then the same merge / replay tail as
  /// the vertex-centric path. There is no chunk stealing: the partition is
  /// the indivisible unit of subgraph work.
  void execute_superstep_subgraph() {
    setup_subgraph_chunks();
    for_each_partition([this](std::size_t p) {
      compute_subgraph_partition(static_cast<std::uint32_t>(p));
    });
    merge_and_replay();
  }

  /// Replay the aggregate / root-completion logs in rank order (the serial
  /// visit order, reproduced even after a migration). The two streams are
  /// replayed independently — an aggregate sum is order-sensitive only
  /// against other aggregate contributions, and root completions only
  /// against each other.
  void replay_staged_logs() {
    rank_merge(
        [this](std::uint32_t c) -> const std::vector<StagedAgg>& {
          return chunk_scratch_[c].aggs;
        },
        [](const StagedAgg& a) { return a.rank; },
        [this](std::uint32_t, const StagedAgg& a) { agg_cur_.add(a.key, a.value); });
    rank_merge(
        [this](std::uint32_t c) -> const std::vector<StagedRootDone>& {
          return chunk_scratch_[c].roots;
        },
        [](const StagedRootDone& r) { return r.rank; },
        [this](std::uint32_t, const StagedRootDone& r) { mark_root_done(r.root); });
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      chunk_scratch_[c].aggs.clear();
      chunk_scratch_[c].roots.clear();
    }
  }

  /// Beamer-style push/pull decision from modeled frontier density only —
  /// active-vertex counts and out-degrees, never thread counts or host
  /// clocks — with hysteresis so the engine does not flap around the
  /// threshold. Part of the bit-identity contract.
  void decide_direction() {
    if (opts_.direction.mode == DirectionOptions::Mode::kAlways) {
      pull_mode_ = pull_this_step_ = true;
      return;
    }
    std::uint64_t frontier_v = 0;
    std::uint64_t frontier_arcs = 0;
    for (const PartitionMeta& ps : parts_) {
      frontier_v += ps.active_cur.size();
      for (std::uint32_t l : ps.active_cur)
        frontier_arcs += graph_->out_degree(ps.vertices[l]);
    }
    if (!pull_mode_) {
      if (static_cast<double>(frontier_arcs) >
          static_cast<double>(graph_->num_arcs()) / opts_.direction.alpha)
        pull_mode_ = true;
    } else {
      if (static_cast<double>(frontier_v) <
          static_cast<double>(graph_->num_vertices()) / opts_.direction.beta)
        pull_mode_ = false;
    }
    pull_this_step_ = pull_mode_;
  }

  /// Global in-edge CSR (pull_off_ / pull_src_) with every target's
  /// in-neighbor list sorted by sender rank: filling in ascending-rank
  /// sender order makes each per-target slice rank-sorted for free
  /// (parallel edges stay adjacent). Built lazily on the first pull
  /// superstep; ranks derive from the build-time assignment, so it stays
  /// valid for the engine's lifetime.
  void build_pull_index() {
    const VertexId n = graph_->num_vertices();
    std::vector<VertexId> by_rank(n);
    for (VertexId v = 0; v < n; ++v) by_rank[rank_of_[v]] = v;
    pull_off_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
      for (VertexId u : graph_->out_neighbors(v)) ++pull_off_[static_cast<std::size_t>(u) + 1];
    for (std::size_t i = 1; i <= n; ++i) pull_off_[i] += pull_off_[i - 1];
    pull_src_.resize(graph_->num_arcs());
    std::vector<std::size_t> fill(pull_off_.begin(), pull_off_.end() - 1);
    for (std::uint32_t r = 0; r < n; ++r) {
      const VertexId w = by_rank[r];
      for (VertexId u : graph_->out_neighbors(w)) pull_src_[fill[u]++] = w;
    }
    pull_index_built_ = true;
  }

  // ---- context callbacks ---------------------------------------------------

  /// Per message, like deliver (which it inlines at one lane): forced inline
  /// into compute so the per-message send stays a few instructions.
  [[gnu::always_inline]] void route(std::uint32_t from_partition, VertexId target, M message,
             std::size_t chunk) {
    PREGEL_DCHECK(target < graph_->num_vertices());
    const std::uint32_t tp = part_of_[target];
    const std::uint32_t tl = local_of_[target];
    ChunkScratch& cs = chunk_scratch_[chunk];
    if (direct_route_) {
      // One lane, unmigrated, push: chunks run in rank order, so delivering
      // now is the merge order, without staging the message.
      SendScratch& acc = send_scratch_[tp * parts_.size() + from_partition];
      deliver(from_partition, tp, tl, std::move(message), acc.load, acc.outbuf_bytes,
              cs.computing_src);
      return;
    }
    // Capture the emission in this chunk's scratch row for the destination;
    // the deterministic merge delivers it after the compute barrier. No
    // shared state is touched here.
    cs.out[tp].push_back(StagedMessage{tl, cs.computing_rank, cs.computing_src,
                                       cs.emit_seq++, std::move(message)});
  }

  /// send_to_all_neighbors: in pull mode capture one broadcast record
  /// instead of materializing a staged message per out-edge; the merge
  /// synthesizes the per-edge stream on the destination side. Otherwise
  /// expand to per-edge routes exactly as the classic push path. Forced
  /// inline like route, which it expands into.
  [[gnu::always_inline]] void broadcast(std::uint32_t from_partition, VertexId v, const M& message,
                 std::size_t chunk) {
    if (pull_this_step_) {
      ChunkScratch& cs = chunk_scratch_[chunk];
      auto& recs = broadcast_store_[v];
      if (recs.empty()) cs.broadcasters.push_back(v);
      recs.emplace_back(cs.emit_seq++, message);
      return;
    }
    for (VertexId u : graph_->out_neighbors(v))
      route(from_partition, u, M(message), chunk);
  }

  /// Deliver one emitted message into partition `tp`'s next inbox: combiner
  /// merge, send/receive accounting, activation. Direct routing (route) and
  /// the merge (merge_destination) share this verbatim so their per-message
  /// effects are identical; source-side counters go through the
  /// `src_load`/`src_outbuf` out-params because the merge cannot write the
  /// source partition directly. `combine_src` is the sender-side combining
  /// domain: the VM the sender's *home* partition is placed on, captured at
  /// emission time so a migrated sender keeps combining into the same bucket
  /// it would have unmigrated (bit-identity of combined message streams).
  /// Forced inline: it runs once per message, and g++ 12's size heuristics
  /// otherwise keep it out of line, which cost a one-lane PageRank job ~15%
  /// (perfbench pagerank-wg-serial).
  [[gnu::always_inline]] void deliver(std::uint32_t from_partition, std::uint32_t tp, std::uint32_t tl, M&& message,
               cloud::WorkerLoad& src_load, Bytes& src_outbuf, std::uint8_t combine_src) {
    PartitionMeta& dst = parts_[tp];
    InboxArena<M>& inbox = data_[tp].inbox;
    const Bytes payload = payload_bytes(message);
    const bool remote = vm_of(from_partition) != vm_of(tp);

    // Combiner (when enabled): merge into an already-buffered message with
    // the same combine key. Modeled as sender-side combining — a combined
    // message adds no transfer bytes and no buffer growth, which is the
    // benefit Pregel combiners exist to provide.
    if constexpr (has_combiner()) {
      if (opts_combine_) {
        M* acc = inbox.match(tl, combine_src, Program::combine_key(message),
                                 [](const M& m) { return Program::combine_key(m); });
        if (acc != nullptr) {
          Program::combine(*acc, message);
          return;
        }
        // fall through to the normal (uncombined) accounting below
      }
    }

    if (remote) {
      ++src_load.messages_sent_remote;
      const Bytes wire = cost_.wire_bytes(payload);
      src_load.bytes_sent_remote += wire;
      src_outbuf += wire;
      dst.load.bytes_received_remote += wire;
      if (log_outboxes_)
        outbox_log_cur_[from_partition * parts_.size() + tp] += wire;
    } else {
      ++src_load.messages_sent_local;
    }
    dst.inbox_next_bytes += cost_.buffered_bytes(payload);
    inbox.append(tl, std::move(message), combine_src);
    activate_local(tp, tl);
  }

  /// remain_active: staged per chunk (the destination partition's merge task
  /// applies them — activation is set-semantics, so order is irrelevant).
  void activate_from(std::size_t chunk, std::uint32_t local) {
    chunk_scratch_[chunk].activations.push_back(local);
  }

  void schedule_wake(std::size_t chunk, std::uint32_t local, std::uint64_t at) {
    PREGEL_CHECK_MSG(at > superstep_, "wake_at: superstep must be in the future");
    chunk_scratch_[chunk].wakes.emplace_back(at, local);
  }

  /// The partition total is staged per chunk; per-vertex slots are disjoint
  /// across chunks (a vertex computes in exactly one slice), so they are
  /// written directly.
  void charge_state(std::uint32_t partition, std::uint32_t local, std::int64_t delta,
                    std::size_t chunk) {
    chunk_scratch_[chunk].state_delta += delta;
    PartitionMeta& ps = parts_[partition];
    if (!ps.state_bytes_v.empty()) ps.state_bytes_v[local] += delta;
  }

  /// Vertex-context aggregate contribution: logged in the chunk's scratch
  /// (tagged with the emitting vertex's rank) and replayed at the barrier in
  /// rank order, the serial summation order.
  void aggregate_from(std::uint64_t key, double value, std::size_t chunk) {
    ChunkScratch& cs = chunk_scratch_[chunk];
    cs.aggs.push_back({cs.computing_rank, key, value});
  }

  /// Vertex-context root completion, staged like aggregate_from so compute
  /// lanes never touch the shared root bookkeeping.
  void root_done_from(VertexId root, std::size_t chunk) {
    ChunkScratch& cs = chunk_scratch_[chunk];
    cs.roots.push_back({cs.computing_rank, root});
  }

  // ---- data ----------------------------------------------------------------

  Program program_;
  std::vector<PartitionData> data_;  ///< by partition, beside parts_
  bool opts_combine_ = false;

  // -- host parallelism (wall-clock only; no effect on results or model) ----
  std::unique_ptr<ThreadPool> pool_;
  std::uint32_t threads_ = 1;  ///< resolved execution lanes for this run
  std::uint32_t grain_ = kDefaultFrontierGrain;  ///< active vertices per chunk
  std::vector<ChunkRef> chunks_;  ///< partition-major; index = serial order
  /// [first, last) chunk indices of each partition's slices.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> part_chunk_range_;
  std::vector<ChunkScratch> chunk_scratch_;  ///< by chunk index
  std::vector<SendScratch> send_scratch_;    ///< [dst * P + src]
  /// This superstep runs on one lane, unmigrated, in push mode: route()
  /// delivers each message as it is emitted instead of staging it. The one
  /// shortcut through the staged superstep; nothing else reads it.
  bool direct_route_ = false;

  // -- direction optimization (push/pull; see header comment) ---------------
  bool direction_enabled_ = false;  ///< program capable && mode != kOff
  bool pull_mode_ = false;          ///< hysteresis state of the heuristic
  bool pull_this_step_ = false;     ///< decision for the running superstep
  /// Pull-mode broadcast capture: per sender, (emission seq, payload) in
  /// call order. Sized once per run when direction is enabled.
  std::vector<std::vector<std::pair<std::uint32_t, M>>> broadcast_store_;
  /// Global in-edge CSR with per-target lists rank-sorted (lazily built).
  std::vector<std::size_t> pull_off_;
  std::vector<VertexId> pull_src_;
  bool pull_index_built_ = false;
  /// Per destination partition: its pull merge's pointwise sends, grouped
  /// by target through the inbox seal (capacity kept across supersteps).
  std::vector<InboxArena<PullSend>> pull_sends_;
};

}  // namespace pregel
