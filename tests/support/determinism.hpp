// Shared shapes for the bit-identity suites: the cluster they run on and the
// host lane counts they sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "util/thread_pool.hpp"

namespace pregel {

/// Eight partitions on four VMs: two partitions per VM, so every run has
/// local AND remote traffic.
inline ClusterConfig eight_partitions_four_vms() {
  ClusterConfig c;
  c.num_partitions = 8;
  c.initial_workers = 4;
  return c;
}

/// Thread counts to sweep: one lane, two, four, and whatever the host offers
/// (deduplicated; on a single-core builder "hardware" is one lane and the
/// explicit 2/4 still drive the pool and the staged merge).
inline std::vector<std::uint32_t> lane_sweep() {
  std::vector<std::uint32_t> lanes{1, 2, 4};
  const unsigned hw = ThreadPool::hardware_threads();
  if (hw > 1 && hw != 2 && hw != 4) lanes.push_back(hw);
  return lanes;
}

}  // namespace pregel
