// Multilevel k-way graph partitioner in the style of METIS
// (Karypis & Kumar 1995 — reference [27] of the paper).
//
// Three phases:
//   1. Coarsening: repeated heavy-edge matching collapses the graph until it
//      is small (vertex and edge weights accumulate).
//   2. Initial partitioning: greedy balanced region growing on the coarsest
//      graph.
//   3. Uncoarsening: project the assignment back level by level, running
//      greedy boundary refinement at each level under a balance constraint.
//      Each vertex carries the weight of its out-arcs inside its partition
//      (`id`) and leaving it (`ed`), METIS-style; a pass visits vertices in
//      a random order, skips every one with ed <= id (no other partition can
//      hold more than ed, so none could win it), and updates the in-neighbours'
//      counts after each move.
//
// Every level is a CSR graph whose arc weights are 32-bit: a weight counts
// input arcs, and partition() rejects an input with more than 2^32 - 1 of
// them. A coarse vertex's arcs are accumulated in a std::unordered_map and
// appended in its iteration order; the next level's heavy-edge matching
// breaks ties by that order, so replacing the map would change every
// assignment; it stays until partitions are allowed to change. The map's
// nodes come from a NodePool (node_pool.hpp): clearing it between coarse
// vertices returns them to a free list, so the ~18 M inserts of a CP/10
// partition allocate nothing in steady state. The pool changes no bucket
// count and no iteration order.
//
// The goal is not to beat METIS but to land in the same edge-cut regime the
// paper reports (remote-edge fraction ~17-18% at 8 parts on WG/CP vs ~87%
// for hash), so the partitioning analysis of Section VII reproduces.
#pragma once

#include <cstdint>

#include "partition/partitioner.hpp"

namespace pregel {

class MultilevelPartitioner final : public Partitioner {
 public:
  struct Options {
    /// Coarsening stops when the graph has at most
    /// max(coarsen_target_per_part * parts, 64) vertices.
    VertexId coarsen_target_per_part = 32;
    /// Refinement passes per level. Each pass draws a fresh random vertex
    /// order but scans only vertices with ed > id: those with more out-arc
    /// weight leaving their partition than staying in it. A level stops
    /// early after a pass that moves nothing.
    int refine_passes = 6;
    /// Allowed max-partition weight as a multiple of perfect balance.
    double imbalance_tolerance = 1.05;
    std::uint64_t seed = 1;
  };

  MultilevelPartitioner() = default;
  explicit MultilevelPartitioner(Options options);

  Partitioning partition(const Graph& g, PartitionId num_parts) const override;
  std::string name() const override { return "metis-like"; }

 private:
  Options opt_;
};

}  // namespace pregel
