#include "cloud/placement.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace pregel::cloud {

GreedyRebalancePlacement::GreedyRebalancePlacement(double trigger, double ewma_alpha)
    : trigger_(trigger), alpha_(ewma_alpha) {
  PREGEL_CHECK_MSG(trigger >= 1.0, "GreedyRebalancePlacement: trigger must be >= 1");
  PREGEL_CHECK_MSG(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
                   "GreedyRebalancePlacement: alpha in (0,1]");
}

std::vector<std::uint32_t> GreedyRebalancePlacement::place(const PlacementSignals& s) {
  const std::size_t parts = s.placement.size();
  PREGEL_CHECK(s.partition_load.size() == parts);
  if (smoothed_.size() != parts) smoothed_.assign(parts, Ewma(alpha_));
  for (std::size_t p = 0; p < parts; ++p) smoothed_[p].add(s.partition_load[p]);

  // Current per-VM load with smoothed partition loads.
  std::vector<double> vm_load(s.workers, 0.0);
  for (std::size_t p = 0; p < parts; ++p) vm_load[s.placement[p]] += smoothed_[p].value();
  const double total = std::accumulate(vm_load.begin(), vm_load.end(), 0.0);
  if (total <= 0.0) return s.placement;
  const double mean = total / s.workers;
  const double worst = *std::max_element(vm_load.begin(), vm_load.end());
  if (worst / mean < trigger_) return s.placement;  // balanced enough

  const std::uint32_t zones =
      s.zones > 1 && s.vm_zone.size() == s.workers ? s.zones : 1;
  const auto zone_of = [&](std::uint32_t vm) { return zones == 1 ? 0u : s.vm_zone[vm]; };

  std::vector<std::size_t> order(parts);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return smoothed_[a].value() > smoothed_[b].value();
  });
  // Handicap VMs the straggler timeout has flagged: each firing costs the
  // VM one mean partition-load's worth of headroom in the packing.
  std::vector<double> bin(s.workers, 0.0);
  if (s.vm_stragglers.size() == s.workers) {
    const double mean_part = total / static_cast<double>(parts);
    for (std::uint32_t v = 0; v < s.workers; ++v)
      bin[v] = mean_part * s.vm_stragglers[v];
  }
  // Two-level LPT, heaviest partitions first: pick the lightest *zone* (by
  // packed load), then the lightest VM inside it. Partition count per zone
  // stays within one of even, and load imbalance across zones is bounded by
  // one partition — losing any single zone loses close to 1/zones of the
  // graph, never a hot-spotted majority. A zone with no VM is never picked.
  // With one zone this is plain LPT onto the first lightest VM.
  std::vector<double> zone_load(zones, std::numeric_limits<double>::infinity());
  for (std::uint32_t v = 0; v < s.workers; ++v) zone_load[zone_of(v)] = 0.0;
  for (std::uint32_t v = 0; v < s.workers; ++v) zone_load[zone_of(v)] += bin[v];
  std::vector<std::uint32_t> out(parts, 0);
  for (std::size_t p : order) {
    const auto lightest_zone = static_cast<std::uint32_t>(
        std::min_element(zone_load.begin(), zone_load.end()) - zone_load.begin());
    std::uint32_t best_vm = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::uint32_t v = 0; v < s.workers; ++v) {
      if (zone_of(v) != lightest_zone) continue;
      if (bin[v] < best) {
        best = bin[v];
        best_vm = v;
      }
    }
    out[p] = best_vm;
    bin[best_vm] += smoothed_[p].value();
    zone_load[lightest_zone] += smoothed_[p].value();
  }
  ++rebalances_;
  return out;
}

}  // namespace pregel::cloud
