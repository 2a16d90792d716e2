#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "graph/analysis.hpp"

namespace pregel {
namespace {

TEST(ErdosRenyi, ExactEdgeCount) {
  Graph g = erdos_renyi(100, 500, 1);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 500u);
}

TEST(ErdosRenyi, DeterministicInSeed) {
  Graph a = erdos_renyi(50, 100, 7);
  Graph b = erdos_renyi(50, 100, 7);
  Graph c = erdos_renyi(50, 100, 8);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  bool same_as_c = a.num_arcs() == c.num_arcs();
  for (VertexId v = 0; v < 50; ++v) {
    const auto na = a.out_neighbors(v), nb = b.out_neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
    if (same_as_c) {
      const auto nc = c.out_neighbors(v);
      same_as_c = std::equal(na.begin(), na.end(), nc.begin(), nc.end());
    }
  }
  EXPECT_FALSE(same_as_c);
}

TEST(ErdosRenyi, RejectsImpossibleEdgeCount) {
  EXPECT_THROW(erdos_renyi(4, 100, 1), std::logic_error);
  EXPECT_THROW(erdos_renyi(1, 0, 1), std::logic_error);
}

TEST(WattsStrogatz, ZeroBetaIsRingLattice) {
  Graph g = watts_strogatz(20, 4, 0.0, 1);
  EXPECT_EQ(g.num_edges(), 40u);  // n*k/2
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(g.out_degree(v), 4u);
}

TEST(WattsStrogatz, RewiringPreservesApproxEdgeCount) {
  Graph g = watts_strogatz(200, 6, 0.3, 2);
  // Rewiring can drop an edge only on rare collision retries.
  EXPECT_GE(g.num_edges(), 580u);
  EXPECT_LE(g.num_edges(), 600u);
}

TEST(WattsStrogatz, ValidatesParameters) {
  EXPECT_THROW(watts_strogatz(10, 3, 0.1, 1), std::logic_error);   // odd k
  EXPECT_THROW(watts_strogatz(4, 6, 0.1, 1), std::logic_error);    // k >= n
  EXPECT_THROW(watts_strogatz(10, 4, 1.5, 1), std::logic_error);   // beta > 1
}

TEST(BarabasiAlbert, EdgeCountFormula) {
  const VertexId n = 500;
  const std::uint32_t m = 3;
  Graph g = barabasi_albert(n, m, 3);
  // clique(m+1) + (n - m - 1) * m edges, possibly minus rare dedupe hits.
  const EdgeIndex expect = static_cast<EdgeIndex>(m + 1) * m / 2 + (n - m - 1) * m;
  EXPECT_EQ(g.num_edges(), expect);
}

TEST(BarabasiAlbert, ProducesHubs) {
  Graph g = barabasi_albert(2000, 4, 5);
  const auto d = degree_stats(g);
  // Scale-free: max degree far above mean.
  EXPECT_GT(d.stats.max(), 8.0 * d.stats.mean());
}

TEST(BarabasiAlbert, ConnectedByConstruction) {
  Graph g = barabasi_albert(300, 2, 9);
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 1u);
}

TEST(Rmat, HitsTargetEdges) {
  Graph g = rmat({.scale = 10, .target_edges = 4000}, 11);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_EQ(g.num_edges(), 4000u);
}

TEST(Rmat, SkewedDegreeDistribution) {
  Graph g = rmat({.scale = 12, .target_edges = 30000}, 13);
  const auto d = degree_stats(g);
  EXPECT_GT(d.stats.max(), 5.0 * d.stats.mean());
}

TEST(Rmat, ValidatesProbabilities) {
  EXPECT_THROW(rmat({.scale = 8, .target_edges = 100, .a = 0.9, .b = 0.9}, 1),
               std::logic_error);
}

TEST(Shapes, PathGraph) {
  Graph g = path_graph(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(2), 2u);
}

TEST(Shapes, RingGraph) {
  Graph g = ring_graph(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.out_degree(v), 2u);
}

TEST(Shapes, StarGraph) {
  Graph g = star_graph(10);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.out_degree(0), 9u);
  EXPECT_EQ(g.out_degree(5), 1u);
}

TEST(Shapes, GridGraph) {
  Graph g = grid_graph(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2u * 4);  // horizontal + vertical
}

TEST(Shapes, CompleteGraph) {
  Graph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.out_degree(v), 5u);
}

TEST(Shapes, BinaryTree) {
  Graph g = binary_tree(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 1u);  // leaf
}

TEST(DatasetAnalogs, SpecsMatchPaperTable1) {
  const auto& specs = paper_datasets();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].short_name, "SD");
  EXPECT_EQ(specs[0].paper_vertices, 82168u);
  EXPECT_EQ(specs[0].paper_edges, 948464u);
  EXPECT_DOUBLE_EQ(specs[3].paper_eff_diameter, 6.5);
}

TEST(DatasetAnalogs, UnknownNameThrows) {
  EXPECT_THROW(dataset_analog("XX"), std::invalid_argument);
}

// Each analog should land near the paper's scaled-down |V| and |E|.
class AnalogSizes : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalogSizes, SizesNearPaperScaledValues) {
  const std::string name = GetParam();
  const DatasetSpec* spec = nullptr;
  for (const auto& s : paper_datasets())
    if (s.short_name == name) spec = &s;
  ASSERT_NE(spec, nullptr);
  const unsigned div = 50;  // keep the test fast; benches use 10
  Graph g = dataset_analog(name, div, 2013);
  const double v_target = static_cast<double>(spec->paper_vertices) / div;
  const double e_target = static_cast<double>(spec->paper_edges) / div;
  EXPECT_NEAR(static_cast<double>(g.num_vertices()), v_target, v_target * 0.02);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), e_target, e_target * 0.30);
}

INSTANTIATE_TEST_SUITE_P(All, AnalogSizes, ::testing::Values("SD", "WG", "CP", "LJ"));

// FNV-1a fold of everything a Graph exposes: n, direction, arc count, the
// modeled footprint (capacities) and every row in CSR order.
std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(g.num_vertices());
  mix(g.undirected() ? 1 : 0);
  mix(g.num_arcs());
  mix(g.memory_footprint());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mix(g.out_degree(v));
    for (const VertexId u : g.out_neighbors(v)) mix(u);
  }
  return h;
}

// Every modeled number downstream starts from these graphs, so the exact
// CSR each analog builds is pinned: a faster builder or generator must
// reproduce it byte for byte.
TEST(Generators, PinnedAnalogDigests) {
  struct Case {
    const char* name;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"SD", 7, 0x128f98cb482f5da2ULL},    {"WG", 7, 0xfc5824d612038b39ULL},
      {"CP", 7, 0x1e91bb90c445077eULL},    {"LJ", 7, 0x1487257e7bc00758ULL},
      {"SD", 2013, 0x574f5974d3c9a20aULL}, {"WG", 2013, 0x270973bab48dcda3ULL},
      {"CP", 2013, 0x85357356fe6c712dULL}, {"LJ", 2013, 0x6bdb14403faee48bULL},
  };
  for (const Case& c : cases)
    EXPECT_EQ(graph_digest(dataset_analog(c.name, 100, c.seed)), c.digest)
        << c.name << "/100 seed " << c.seed;
}

}  // namespace
}  // namespace pregel
