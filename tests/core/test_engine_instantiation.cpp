// Engine<Program> instantiates explicitly for either programming model: the
// members that call one model's compute hook are constrained on the model,
// so an explicit instantiation definition names nothing the program lacks.
#include <gtest/gtest.h>

#include <vector>

#include "algos/bc.hpp"
#include "algos/pagerank.hpp"
#include "core/engine.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "subgraph/sssp.hpp"
#include "support/determinism.hpp"

namespace pregel {

// A vertex program with inline inboxes, a direction-optimized vertex program
// whose inboxes hold references to broadcast records, and a subgraph program.
template class Engine<algos::PageRankProgram>;
template class Engine<algos::BcProgram>;
template class Engine<subgraph::SsspSubgraphProgram>;

namespace {

TEST(EngineInstantiation, ExplicitInstantiationsMatchTheReferences) {
  const Graph g = barabasi_albert(200, 3, 5);
  const ClusterConfig c = eight_partitions_four_vms();
  const auto parts = HashPartitioner{}.partition(g, c.num_partitions);

  JobOptions all;
  all.start_all_vertices = true;
  const auto pr = Engine<algos::PageRankProgram>(g, {10, 0.85}, c, parts).run(all);
  ASSERT_FALSE(pr.failed);
  const std::vector<double> pr_ref = reference_pagerank(g, 10);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(pr.values[v].rank, pr_ref[v], 1e-9) << "vertex " << v;

  JobOptions rooted;
  rooted.roots = {0, 77};
  const auto bc = Engine<algos::BcProgram>(g, {}, c, parts).run(rooted);
  ASSERT_FALSE(bc.failed);
  const std::vector<double> bc_ref = reference_betweenness(g, rooted.roots);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(bc.values[v].bc_score, bc_ref[v], 1e-6) << "vertex " << v;

  const auto sssp = subgraph::run_sssp_subgraph(g, c, parts, 0);
  ASSERT_FALSE(sssp.failed);
  const std::vector<std::uint32_t> hops = bfs_distances(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(sssp.values[v].distance, hops[v]) << "vertex " << v;
}

}  // namespace
}  // namespace pregel
