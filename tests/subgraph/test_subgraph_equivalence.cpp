// Subgraph-centric vs vertex-centric equivalence (docs/SUBGRAPH.md).
//
// The subgraph model's load-bearing promise: for algorithms with a unique
// fixed point, running the per-partition sequential exemplar produces
// *bit-identical* vertex values to the message-per-hop vertex program —
// while finishing in no more supersteps (and strictly fewer on a
// locality-preserving partitioning, where local convergence collapses the
// wave to the meta-graph diameter). Every comparison here is exact:
// integer distances/labels with EXPECT_EQ, PageRank doubles with == via
// the staged-outbox canonical summation order.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"
#include "subgraph/components.hpp"
#include "subgraph/pagerank.hpp"
#include "subgraph/sssp.hpp"
#include "support/determinism.hpp"

namespace pregel {
namespace {

/// The three seeded topologies the equivalence suite sweeps: random,
/// mesh-like, and power-law. All generators emit symmetric arc pairs, which
/// the Components exemplars require.
std::vector<Graph> topology_sweep() {
  std::vector<Graph> graphs;
  graphs.push_back(erdos_renyi(400, 900, 47));
  graphs.push_back(grid_graph(20, 25));
  graphs.push_back(barabasi_albert(600, 3, 41));
  return graphs;
}

TEST(SubgraphEquivalence, SsspDistancesMatchVertexEngine) {
  const ClusterConfig c = eight_partitions_four_vms();
  for (const Graph& g : topology_sweep()) {
    const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
    const auto vertex = algos::run_sssp(g, c, parts, /*source=*/0);
    const auto sub = subgraph::run_sssp_subgraph(g, c, parts, /*source=*/0);
    ASSERT_FALSE(vertex.failed);
    ASSERT_FALSE(sub.failed);
    ASSERT_EQ(sub.values.size(), vertex.values.size());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(sub.values[v].distance, vertex.values[v].distance) << "vertex " << v;
    // Local Dijkstra never needs *more* barriers than one-hop flooding.
    EXPECT_LE(sub.metrics.supersteps.size(), vertex.metrics.supersteps.size());
  }
}

TEST(SubgraphEquivalence, ComponentsLabelsMatchVertexEngine) {
  const ClusterConfig c = eight_partitions_four_vms();
  for (const Graph& g : topology_sweep()) {
    const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
    const auto vertex = algos::run_components(g, c, parts);
    const auto sub = subgraph::run_components_subgraph(g, c, parts);
    ASSERT_FALSE(vertex.failed);
    ASSERT_FALSE(sub.failed);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(sub.values[v].label, vertex.values[v].label) << "vertex " << v;
    EXPECT_LE(sub.metrics.supersteps.size(), vertex.metrics.supersteps.size());
  }
}

// On a locality-preserving (multilevel, METIS-like) partitioning, partitions
// are contiguous patches: per-partition Dijkstra crosses an entire patch per
// barrier, so the superstep count collapses from the grid diameter toward
// the meta-graph diameter. This is the headline subgraph-model win.
TEST(SubgraphEquivalence, LocalityPartitioningCollapsesSuperstepCount) {
  const Graph g = grid_graph(20, 25);  // diameter 43: worst case for flooding
  const ClusterConfig c = eight_partitions_four_vms();
  MultilevelPartitioner::Options mo;
  mo.seed = 7;
  const auto parts = MultilevelPartitioner{mo}.partition(g, c.num_partitions);

  const auto vertex = algos::run_sssp(g, c, parts, /*source=*/0);
  const auto sub = subgraph::run_sssp_subgraph(g, c, parts, /*source=*/0);
  ASSERT_FALSE(vertex.failed);
  ASSERT_FALSE(sub.failed);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(sub.values[v].distance, vertex.values[v].distance) << "vertex " << v;
  EXPECT_LT(sub.metrics.supersteps.size(), vertex.metrics.supersteps.size());

  // Components is where the cut traffic shrinks too: local union-find jumps
  // every member to the partition minimum in one barrier, so the chain of
  // ever-smaller label re-floods that vertex-centric propagation pays for
  // never crosses the cut. (Subgraph SSSP may re-flood a boundary when a
  // later wave improves an already-converged patch, so bytes are asserted
  // on Components, not SSSP.)
  const auto cc_vertex = algos::run_components(g, c, parts);
  const auto cc_sub = subgraph::run_components_subgraph(g, c, parts);
  ASSERT_FALSE(cc_vertex.failed);
  ASSERT_FALSE(cc_sub.failed);
  EXPECT_LT(cc_sub.metrics.supersteps.size(), cc_vertex.metrics.supersteps.size());
  std::uint64_t vertex_remote = 0, sub_remote = 0;
  for (const auto& sm : cc_vertex.metrics.supersteps)
    for (const auto& wm : sm.workers) vertex_remote += wm.bytes_sent_remote;
  for (const auto& sm : cc_sub.metrics.supersteps)
    for (const auto& wm : sm.workers) sub_remote += wm.bytes_sent_remote;
  EXPECT_LT(sub_remote, vertex_remote);
}

// Exact-Jacobi mode replays the vertex engine's summation order — internal
// shares and boundary messages merged in ascending global sender rank — so
// the doubles must match bit-for-bit, not just approximately.
TEST(SubgraphEquivalence, PageRankJacobiBitIdenticalToVertexEngine) {
  const ClusterConfig c = eight_partitions_four_vms();
  for (const Graph& g : topology_sweep()) {
    const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
    const auto vertex = algos::run_pagerank(g, c, parts, /*iterations=*/25);
    const auto sub = subgraph::run_pagerank_subgraph(g, c, parts, /*iterations=*/25);
    ASSERT_FALSE(vertex.failed);
    ASSERT_FALSE(sub.failed);
    ASSERT_EQ(sub.metrics.supersteps.size(), vertex.metrics.supersteps.size());
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(sub.values[v].rank, vertex.values[v].rank) << "vertex " << v;
  }
}

// Gauss-Seidel sweeps reorder the arithmetic (that is the point: in-place
// updates converge faster), so the contract is convergence to the same
// stationary distribution, not bit-identity with Jacobi.
TEST(SubgraphEquivalence, PageRankGaussSeidelConvergesToReference) {
  const Graph g = barabasi_albert(500, 3, 13);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  const auto reference = algos::run_pagerank(g, c, parts, /*iterations=*/80);
  ASSERT_FALSE(reference.failed);

  subgraph::PageRankSubgraphProgram prog;
  prog.iterations = 80;
  prog.mode = subgraph::PageRankSubgraphProgram::Mode::kGaussSeidel;
  Engine<subgraph::PageRankSubgraphProgram> engine(g, prog, c, parts);
  JobOptions o;
  o.start_all_vertices = true;
  const auto gs = engine.run(o);
  ASSERT_FALSE(gs.failed);

  double sum = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(gs.values[v].rank, reference.values[v].rank, 1e-6) << "vertex " << v;
    sum += gs.values[v].rank;
  }
  // Mass conservation up to the flood threshold: deltas below the per-arc
  // tolerance are withheld, so the total drifts by at most ~n * tolerance
  // per sweep, not machine epsilon.
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

// Parallelism is pure wall-clock: the staged outbox is sorted into the
// canonical (sender rank, emit seq) order per partition before the merge,
// so lane count must not leak into values OR the modeled metric record.
TEST(SubgraphEquivalence, SubgraphBitIdenticalAcrossLaneCounts) {
  const Graph g = barabasi_albert(600, 3, 41);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions o;
  o.start_all_vertices = true;
  o.parallelism = 1;
  Engine<subgraph::PageRankSubgraphProgram> serial(g, {}, c, parts);
  const auto base = serial.run(o);
  ASSERT_FALSE(base.failed);

  for (std::uint32_t lanes : lane_sweep()) {
    o.parallelism = lanes;
    Engine<subgraph::PageRankSubgraphProgram> e(g, {}, c, parts);
    const auto r = e.run(o);
    ASSERT_FALSE(r.failed) << lanes << " lanes";
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(r.values[v].rank, base.values[v].rank) << "vertex " << v << ", "
                                                       << lanes << " lanes";
    EXPECT_EQ(first_modeled_difference(r.metrics, base.metrics), "") << lanes << " lanes";
  }
}

// Internal sequential work is billed through WorkerLoad::subgraph_ops at its
// own (cheaper) cycle rate — a subgraph run must actually report some.
TEST(SubgraphEquivalence, InternalWorkIsMetered) {
  const Graph g = grid_graph(20, 25);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);
  const auto r = subgraph::run_sssp_subgraph(g, c, parts, 0);
  ASSERT_FALSE(r.failed);
  std::uint64_t ops = 0;
  for (const auto& sm : r.metrics.supersteps)
    for (const auto& wm : sm.workers) ops += wm.subgraph_ops;
  EXPECT_GT(ops, 0u);
}

}  // namespace
}  // namespace pregel
