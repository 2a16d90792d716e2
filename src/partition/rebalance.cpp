#include "partition/rebalance.hpp"

#include <algorithm>
#include <cstddef>
#include <span>

#include "util/check.hpp"

namespace pregel {

namespace {

/// Per-VM active-vertex counts under the signal's placement.
std::vector<std::uint64_t> vm_active_counts(const RebalanceSignals& s) {
  std::vector<std::uint64_t> counts(s.workers, 0);
  for (std::size_t p = 0; p < s.active.size(); ++p) {
    const std::uint32_t vm = (*s.placement)[p];
    PREGEL_DCHECK(vm < s.workers);
    counts[vm] += s.active[p].size();
  }
  return counts;
}

}  // namespace

double active_imbalance(const RebalanceSignals& s) {
  const auto counts = vm_active_counts(s);
  std::uint64_t total = 0, peak = 0;
  for (const auto c : counts) {
    total += c;
    peak = std::max(peak, c);
  }
  if (total == 0 || counts.empty()) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(counts.size());
  return static_cast<double>(peak) / mean;
}

MigrationPlan ActivityGreedyPlanner::plan(const RebalanceSignals& s) {
  MigrationPlan out;
  if (s.workers < 2 || s.active.empty()) return out;

  auto vm_counts = vm_active_counts(s);
  std::uint64_t total = 0;
  for (const auto c : vm_counts) total += c;
  if (total == 0) return out;
  const double mean = static_cast<double>(total) / static_cast<double>(s.workers);

  // Mutable working copy of per-partition active counts; the vertex ids we
  // emit are read from the backs of the (ascending) active lists, so
  // consuming `taken[p]` entries from the back is a pure index computation.
  std::vector<std::uint64_t> part_counts(s.active.size());
  std::vector<std::uint64_t> taken(s.active.size(), 0);
  for (std::size_t p = 0; p < s.active.size(); ++p) part_counts[p] = s.active[p].size();

  std::uint64_t budget = max_moves_;
  // Each round rebalances the current worst donor/receiver pair; bounded by
  // the move budget and a round cap so pathological signals cannot spin.
  for (std::uint32_t round = 0; round < 4 * s.workers && budget > 0; ++round) {
    std::uint32_t donor = 0, recv = 0;
    for (std::uint32_t v = 1; v < s.workers; ++v) {
      if (vm_counts[v] > vm_counts[donor]) donor = v;
      if (vm_counts[v] < vm_counts[recv]) recv = v;
    }
    if (static_cast<double>(vm_counts[donor]) <= (1.0 + tolerance_) * mean) break;
    if (donor == recv) break;

    const double excess = static_cast<double>(vm_counts[donor]) - mean;
    const double half_gap =
        static_cast<double>(vm_counts[donor] - vm_counts[recv]) / 2.0;
    std::uint64_t want = static_cast<std::uint64_t>(std::min(excess, half_gap));
    want = std::min(want, budget);
    if (want == 0) break;

    // Donor partition: most NAMEABLE actives on the donor VM — a partition
    // that received moves earlier in this plan counts them in part_counts
    // (they are load), but only its original active list can be donated
    // from, so selection and batch sizing go by the untaken remainder.
    // Receiver partition: fewest actives on the receiver VM. Ties break to
    // the lowest partition id, keeping the plan deterministic.
    PartitionId dp = kInvalidVertex, rp = kInvalidVertex;
    std::uint64_t dp_avail = 0;
    for (std::size_t p = 0; p < s.active.size(); ++p) {
      const std::uint32_t vm = (*s.placement)[p];
      if (vm == donor) {
        const std::uint64_t a = s.active[p].size() - taken[p];
        if (dp == kInvalidVertex || a > dp_avail) {
          dp = static_cast<PartitionId>(p);
          dp_avail = a;
        }
      }
      if (vm == recv && (rp == kInvalidVertex || part_counts[p] < part_counts[rp]))
        rp = static_cast<PartitionId>(p);
    }
    if (dp == kInvalidVertex || rp == kInvalidVertex || dp_avail == 0) break;

    const std::uint64_t batch = std::min<std::uint64_t>(want, dp_avail);
    const auto& actives = s.active[dp];
    const std::size_t end = actives.size() - taken[dp];
    for (std::uint64_t i = 0; i < batch; ++i)
      out.moves.push_back({actives[end - 1 - i], dp, rp});
    taken[dp] += batch;
    part_counts[dp] -= batch;
    part_counts[rp] += batch;
    vm_counts[donor] -= batch;
    vm_counts[recv] += batch;
    budget -= batch;
  }
  return out;
}

MigrationPlan EdgeCutRefinePlanner::plan(const RebalanceSignals& s) {
  MigrationPlan out;
  if (s.workers < 2 || s.active.empty() || s.graph == nullptr) return out;

  const auto& part_of = *s.part_of;
  const PartitionId parts = static_cast<PartitionId>(s.active.size());
  auto vm_counts = vm_active_counts(s);
  std::uint64_t total = 0;
  for (const auto c : vm_counts) total += c;
  if (total == 0) return out;
  const double cap =
      (1.0 + balance_tolerance_) * static_cast<double>(total) /
      static_cast<double>(s.workers);

  // Tally cache: reusable while the location table is unchanged. The version
  // guard is the cheap fast path (any applied migration bumps it); the full
  // part_of comparison keeps the cache sound when distinct engines share one
  // planner instance and happen to land on equal version counters.
  const bool reusable = cache_valid_ && cached_graph_ == s.graph &&
                        cached_version_ == s.location_version &&
                        cached_part_of_ == part_of;
  if (!reusable) {
    tally_runs_.assign(s.graph->num_vertices(), TallyRun{});
    tally_pool_.clear();
    cached_graph_ = s.graph;
    cached_version_ = s.location_version;
    cached_part_of_ = part_of;
    cache_valid_ = true;
  }

  std::vector<std::uint32_t> tally(parts, 0);
  for (PartitionId p = 0; p < parts && out.moves.size() < max_moves_; ++p) {
    for (const VertexId v : s.active[p]) {
      if (out.moves.size() >= max_moves_) break;
      TallyRun& run = tally_runs_[v];
      if (run.size == TallyRun::kUncached) {
        const auto nbrs = s.graph->out_neighbors(v);
        for (const VertexId u : nbrs) tally[part_of[u]]++;
        PREGEL_CHECK(tally_pool_.size() + parts < TallyRun::kUncached);
        run.begin = static_cast<std::uint32_t>(tally_pool_.size());
        for (PartitionId q = 0; q < parts; ++q)
          if (tally[q] > 0) tally_pool_.push_back({q, tally[q]});
        run.size = static_cast<std::uint32_t>(tally_pool_.size() - run.begin);
        for (const VertexId u : nbrs) tally[part_of[u]] = 0;  // reset for next vertex
      } else {
        ++cache_hits_;
      }
      const std::span counts(tally_pool_.data() + run.begin, run.size);  // ascending id
      if (counts.empty()) continue;  // isolated vertex
      // Best foreign partition by neighbor count; ties to the lowest id
      // (entries are ascending and only a strictly greater count displaces
      // the running best, exactly matching the uncached scan).
      std::uint32_t home_n = 0;
      for (const auto& [q, n] : counts)
        if (q == p) home_n = n;
      PartitionId best = p;
      std::uint32_t best_n = home_n;
      for (const auto& [q, n] : counts) {
        if (q != p && n > best_n) {
          best = q;
          best_n = n;
        }
      }
      if (best == p || best_n <= home_n) continue;
      const std::uint32_t dst_vm = (*s.placement)[best];
      const std::uint32_t src_vm = (*s.placement)[p];
      if (dst_vm == src_vm) {
        // Same VM: pure cut refinement, no load shift — always admissible.
        out.moves.push_back({v, p, best});
        continue;
      }
      if (static_cast<double>(vm_counts[dst_vm]) + 1.0 > cap) continue;
      out.moves.push_back({v, p, best});
      vm_counts[dst_vm] += 1;
      vm_counts[src_vm] -= 1;
    }
  }
  return out;
}

}  // namespace pregel
