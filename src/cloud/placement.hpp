// Dynamic partition placement ("overdecomposition + rebalancing").
//
// The paper's §VII finding is that a low-edge-cut partitioning can *hurt*
// under BSP, because traversal activity concentrates in a few partitions and
// the barrier makes everyone wait ("local maximas ... cause underutilization
// of workers that wait for overutilized workers"). GPS — the closest related
// system — answers with dynamic repartitioning. We implement the practical
// variant: create more partitions than workers and let a placement policy
// re-pack partitions onto worker VMs at superstep barriers, based on
// observed load, paying modeled migration costs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace pregel::cloud {

/// What a placement policy sees at a barrier.
struct PlacementSignals {
  std::uint64_t superstep = 0;
  std::uint32_t workers = 0;
  /// Per-partition activity in the superstep just finished (messages
  /// processed + sent — the quantity whose imbalance Figures 10-14 plot).
  std::vector<double> partition_load;
  /// Per-partition resident bytes (graph + state + buffers): migration cost.
  std::vector<Bytes> partition_bytes;
  /// Current partition -> worker VM assignment.
  std::vector<std::uint32_t> placement;
  /// Straggler-timeout firings per VM so far this job (empty when the
  /// straggler timeout is disabled). A repeatedly slow VM is a bad home for
  /// heavy partitions even if its historical load looks light.
  std::vector<std::uint32_t> vm_stragglers;
  /// Availability zones in the cluster (1 = correlated failure domains not
  /// modeled) and each VM's zone label. Zone-aware policies keep a
  /// partition's replicas and neighbors spread so one zone outage cannot
  /// take out a disproportionate slice of the graph.
  std::uint32_t zones = 1;
  std::vector<std::uint32_t> vm_zone;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  /// New partition -> VM assignment (size = partitions, entries < workers).
  /// Returning `signals.placement` unchanged means "no migration".
  virtual std::vector<std::uint32_t> place(const PlacementSignals& signals) = 0;
  virtual std::string name() const = 0;
};

/// Greedy load rebalancer: smooths per-partition load with an EWMA, and when
/// the max/mean VM load ratio exceeds `trigger`, re-packs partitions onto
/// VMs with longest-processing-time-first bin packing. Hysteresis (the
/// trigger plus the EWMA) keeps it from thrashing placements every barrier.
/// With more than one availability zone the packing spreads load across
/// zones first and VMs second, so a single zone outage loses a near-minimal
/// share of partitions (and, through the engine's replica targeting, never
/// a checkpoint together with every VM that could restore it). The engine's
/// default with no policy installed is the static p mod workers.
class GreedyRebalancePlacement final : public PlacementPolicy {
 public:
  explicit GreedyRebalancePlacement(double trigger = 1.25, double ewma_alpha = 0.5);

  std::vector<std::uint32_t> place(const PlacementSignals& signals) override;
  std::string name() const override { return "greedy-rebalance"; }

  std::uint32_t rebalances() const noexcept { return rebalances_; }

 private:
  double trigger_;
  double alpha_;
  std::vector<Ewma> smoothed_;
  std::uint32_t rebalances_ = 0;
};

}  // namespace pregel::cloud
