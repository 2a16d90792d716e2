// Capacity policy for buffers that are filled and drained every superstep,
// one small buffer per chunk or per (chunk, destination): the engine's
// staged outbox rows and the pull-mode broadcast records each chunk's
// scratch collects. A chunk's records drain right after the compute
// barrier, when they are copied into the superstep's record table.
//
// One threshold, applied identically to every such buffer: after a drain,
// capacity above kDrainShrinkElements is released to the allocator, anything
// smaller stays cached for the next superstep. Inboxes are not governed by
// it: each partition's messages live in one flat arrival log and one sealed
// arena (core/inbox.hpp), whose capacity rule is stated there, and so does
// the lifetime of a record table, which is allocated whole per pull
// superstep and released when the last inbox referencing it is drained.
#pragma once

#include <cstddef>

namespace pregel {

/// Buffers at or below this many elements keep their capacity across
/// supersteps; larger ones are released after each drain. Reallocating every
/// small row every superstep is pure churn for the common small-frontier
/// case, while a burst-sized buffer held forever is a leak the governor's
/// accounting never sees.
inline constexpr std::size_t kDrainShrinkElements = 64;

/// Drain `v` under the shared policy: clear, then release outsized capacity.
template <class Vec>
inline void shrink_after_drain(Vec& v) {
  v.clear();
  if (v.capacity() > kDrainShrinkElements) v.shrink_to_fit();
}

}  // namespace pregel
