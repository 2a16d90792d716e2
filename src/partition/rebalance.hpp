// Vertex-migration planning: which vertices should move where.
//
// The paper's central negative result (§V) is that edge-cut-optimal
// partitioning can *slow down* traversal workloads: the frontier sweeps
// through one well-cut partition at a time, the BSP barrier makes the
// busiest worker set the pace, and the cut quality buys nothing while the
// per-superstep load imbalance costs everything. The fix examined here is
// live rebalancing — at a barrier, a MigrationPlanner looks at the
// *next-superstep active set* per worker and proposes vertex moves; the
// cloud-layer MigrationExecutor then prices and performs the transfer.
//
// Planners are pure functions of their signals (no hidden state, no RNG),
// so a plan is replayable from a trace. This module depends only on the
// graph and partitioner layers; everything cloud-priced lives in
// src/cloud/migration.*.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "partition/partitioner.hpp"

namespace pregel {

/// One planned move: `vertex` leaves partition `from` for partition `to`.
/// Moves are partition-level retargets — the executor derives the VM hop
/// from the placement map.
struct VertexMove {
  VertexId vertex = kInvalidVertex;
  PartitionId from = 0;
  PartitionId to = 0;
  friend bool operator==(const VertexMove&, const VertexMove&) = default;
};

struct MigrationPlan {
  std::vector<VertexMove> moves;
  bool empty() const noexcept { return moves.empty(); }
};

/// Everything a planner may look at. All pointers are non-owning views of
/// engine state, valid for the duration of the plan() call only.
struct RebalanceSignals {
  const Graph* graph = nullptr;
  /// Current home partition of every vertex (size = num_vertices).
  const std::vector<PartitionId>* part_of = nullptr;
  /// Partition -> worker VM placement (size = num_partitions).
  const std::vector<std::uint32_t>* placement = nullptr;
  std::uint32_t workers = 1;
  std::uint64_t superstep = 0;
  /// Monotonic version of the engine's vertex-location table; bumped on
  /// every applied migration and placement reset. Stateful planners (the
  /// cut-refine boundary cache, the meta-graph planner) key their caches on
  /// it: unchanged version + unchanged graph ⇒ part_of is unchanged.
  std::uint64_t location_version = 0;
  /// Per partition: vertices active in the *next* superstep, ascending ids.
  std::vector<std::vector<VertexId>> active;
};

/// max / mean of per-VM active-vertex counts (1.0 = perfectly balanced,
/// 0.0 when nothing is active). The quantity planners try to shrink and
/// JobMetrics::rebalance_gain is denominated in.
double active_imbalance(const RebalanceSignals& s);

/// Strategy interface. plan() must be deterministic in its signals.
class MigrationPlanner {
 public:
  virtual ~MigrationPlanner() = default;
  virtual MigrationPlan plan(const RebalanceSignals& s) = 0;
  /// Short label for traces/reports: "none", "activity-greedy", "cut-refine".
  virtual std::string name() const = 0;
};

/// Placebo: never moves anything. Lets call sites keep migration wiring in
/// place while measuring the unmigrated baseline.
class NoMigrationPlanner final : public MigrationPlanner {
 public:
  MigrationPlan plan(const RebalanceSignals&) override { return {}; }
  std::string name() const override { return "none"; }
};

/// Activity-greedy load balancing: repeatedly shift active vertices from the
/// busiest VM to the idlest until the per-VM active counts sit within
/// `tolerance` of the mean or the move budget runs out. Donor vertices are
/// taken highest-id-first from the donor VM's most-active partition and
/// retargeted to the receiver VM's least-active partition — a deterministic
/// choice that keeps each move batch contiguous in the active list.
class ActivityGreedyPlanner final : public MigrationPlanner {
 public:
  explicit ActivityGreedyPlanner(double tolerance = 0.2,
                                 std::uint64_t max_moves = 4096)
      : tolerance_(tolerance), max_moves_(max_moves) {}
  MigrationPlan plan(const RebalanceSignals& s) override;
  std::string name() const override { return "activity-greedy"; }

 private:
  double tolerance_;
  std::uint64_t max_moves_;
};

/// Edge-cut-aware refinement: for each active vertex, count neighbors per
/// partition and move it to the partition holding the most of them when
/// that beats staying home — the classic KL/FM gain step, restricted to the
/// active frontier and guarded so no receiving VM exceeds
/// (1 + balance_tolerance) x the mean active load. Trades some balance for
/// fewer remote messages; the planner the paper's §VII partition-quality
/// analysis argues for and its §V imbalance result argues against.
///
/// Per-vertex neighbor tallies are cached across consecutive barriers: while
/// the location table is unchanged (same graph, same `location_version`,
/// same part_of), a vertex active again reuses its cached (partition, count)
/// list instead of re-scanning its full adjacency. Any applied migration
/// bumps the version and drops the cache. Decisions and move order are
/// bit-identical with the cache hot or cold.
class EdgeCutRefinePlanner final : public MigrationPlanner {
 public:
  explicit EdgeCutRefinePlanner(std::uint64_t max_moves = 512,
                                double balance_tolerance = 0.25)
      : max_moves_(max_moves), balance_tolerance_(balance_tolerance) {}
  MigrationPlan plan(const RebalanceSignals& s) override;
  std::string name() const override { return "cut-refine"; }

  /// Adjacency scans avoided via the tally cache (observability for tests).
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }

 private:
  std::uint64_t max_moves_;
  double balance_tolerance_;

  // Tally cache, valid while (graph, location_version, part_of) match.
  // Vertex v's (partition, count) list is tally_pool_[begin, begin + size)
  // of tally_runs_[v]; size kUncached marks a vertex not yet scanned.
  struct TallyRun {
    static constexpr std::uint32_t kUncached = ~std::uint32_t{0};
    std::uint32_t begin = 0;
    std::uint32_t size = kUncached;
  };
  const Graph* cached_graph_ = nullptr;
  std::uint64_t cached_version_ = 0;
  bool cache_valid_ = false;
  std::vector<PartitionId> cached_part_of_;
  std::vector<TallyRun> tally_runs_;
  std::vector<std::pair<PartitionId, std::uint32_t>> tally_pool_;
  std::uint64_t cache_hits_ = 0;
};

/// Migration configuration carried on ClusterConfig. Migration is off
/// unless a planner is installed; `period` consults the planner every k
/// barriers (0 = only at scaling/governor events); `on_scaling` replans
/// after every worker-count change.
struct MigrationOptions {
  std::shared_ptr<MigrationPlanner> planner;
  std::uint64_t period = 0;
  bool on_scaling = true;
  bool enabled() const noexcept { return planner != nullptr; }
};

}  // namespace pregel
