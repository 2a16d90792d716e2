#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace pregel {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  Graph g = GraphBuilder(0).build();
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(GraphBuilder, RejectsOutOfRangeVertex) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(3, 0), std::invalid_argument);
  EXPECT_NO_THROW(b.add_edge(0, 2));
}

TEST(GraphBuilder, UndirectedSymmetrizes) {
  Graph g = GraphBuilder(3).add_edge(0, 1).add_edge(1, 2).build();
  EXPECT_TRUE(g.undirected());
  EXPECT_EQ(g.num_arcs(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  const auto n1 = g.out_neighbors(1);
  EXPECT_EQ(std::set<VertexId>(n1.begin(), n1.end()), (std::set<VertexId>{0, 2}));
}

TEST(GraphBuilder, DirectedKeepsOrientation) {
  Graph g = GraphBuilder(3, /*undirected=*/false).add_edge(0, 1).add_edge(1, 2).build();
  EXPECT_FALSE(g.undirected());
  EXPECT_EQ(g.num_arcs(), 2u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(2), 0u);
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  Graph g = GraphBuilder(2).add_edge(0, 1).add_edge(0, 1).add_edge(1, 0).build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, DropsSelfLoopsByDefault) {
  Graph g = GraphBuilder(2).add_edge(0, 0).add_edge(0, 1).build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, KeepSelfLoopsOptIn) {
  Graph g = GraphBuilder(2, /*undirected=*/false)
                .keep_self_loops()
                .add_edge(0, 0)
                .add_edge(0, 1)
                .build();
  EXPECT_EQ(g.num_arcs(), 2u);
}

TEST(GraphBuilder, AddEdgesSpan) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  Graph g = GraphBuilder(4).add_edges(edges).build();
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilder, BuildResetsBuilder) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  EXPECT_EQ(b.pending_edges(), 1u);
  (void)b.build();
  EXPECT_EQ(b.pending_edges(), 0u);
  EXPECT_EQ(b.build().num_edges(), 0u);
}

// GraphBuilder's contract, spelled out the slow way: every kept arc (both
// directions when undirected), sorted by (src, dst), repeats dropped when
// deduping; rows are that list cut by source.
std::vector<Edge> reference_arcs(const std::vector<Edge>& edges, bool undirected, bool dedupe,
                                 bool drop_loops) {
  std::vector<Edge> arcs;
  for (const Edge& e : edges) {
    if (drop_loops && e.src == e.dst) continue;
    arcs.push_back(e);
    if (undirected) arcs.push_back({e.dst, e.src});
  }
  std::sort(arcs.begin(), arcs.end());
  if (dedupe) arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  return arcs;
}

void expect_matches(const Graph& g, VertexId n, const std::vector<Edge>& arcs) {
  ASSERT_EQ(g.num_vertices(), n);
  ASSERT_EQ(g.num_arcs(), arcs.size());
  // Capacity equals size: the modeled footprint counts no slack.
  EXPECT_EQ(g.memory_footprint(), (static_cast<Bytes>(n) + 1) * sizeof(EdgeIndex) +
                                      arcs.size() * sizeof(VertexId));
  std::size_t i = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : g.out_neighbors(v)) {
      ASSERT_LT(i, arcs.size());
      ASSERT_EQ(arcs[i], (Edge{v, u})) << "arc " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, arcs.size());
}

TEST(GraphBuilder, MatchesSortedReference) {
  Xoshiro256 rng(0xB111D);
  struct Shape {
    VertexId n;
    std::size_t m;
  };
  // Zero edges, a single vertex, dense multigraphs (many parallel edges and
  // self-loops), and sparse ones with many empty rows.
  const Shape shapes[] = {{1, 0}, {1, 3}, {2, 6}, {5, 40}, {7, 0}, {50, 400}, {300, 120}, {300, 3000}};
  for (int flags = 0; flags < 8; ++flags) {
    const bool undirected = (flags & 1) != 0;
    const bool dedupe = (flags & 2) != 0;
    const bool drop_loops = (flags & 4) != 0;
    for (const Shape& sh : shapes) {
      SCOPED_TRACE("undirected=" + std::to_string(undirected) + " dedupe=" +
                   std::to_string(dedupe) + " drop_loops=" + std::to_string(drop_loops) +
                   " n=" + std::to_string(sh.n) + " m=" + std::to_string(sh.m));
      std::vector<Edge> edges;
      for (std::size_t i = 0; i < sh.m; ++i)
        edges.push_back({static_cast<VertexId>(rng.next_below(sh.n)),
                         static_cast<VertexId>(rng.next_below(sh.n))});
      // Vertex n-1 always has arcs (its row ends the CSR), twice over.
      if (sh.m > 0) {
        edges.push_back({sh.n - 1, 0});
        edges.push_back({0, sh.n - 1});
        edges.push_back({sh.n - 1, 0});
      }
      GraphBuilder b(sh.n, undirected);
      b.keep_duplicates(!dedupe).keep_self_loops(!drop_loops).add_edges(edges);
      const Graph g = b.build();
      EXPECT_EQ(g.undirected(), undirected);
      expect_matches(g, sh.n, reference_arcs(edges, undirected, dedupe, drop_loops));

      // transposed() rebuilds through the same builder, keeping multiplicity.
      std::vector<Edge> reversed;
      for (VertexId v = 0; v < sh.n; ++v)
        for (const VertexId u : g.out_neighbors(v)) reversed.push_back({u, v});
      expect_matches(g.transposed(), sh.n,
                     reference_arcs(reversed, /*undirected=*/false, /*dedupe=*/false,
                                    /*drop_loops=*/false));
    }
  }
}

TEST(Graph, NeighborsSortedAscending) {
  Graph g = GraphBuilder(5).add_edge(0, 4).add_edge(0, 2).add_edge(0, 1).build();
  const auto n0 = g.out_neighbors(0);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
}

TEST(Graph, AverageDegree) {
  Graph g = GraphBuilder(4).add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).build();
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0 / 4.0);
}

TEST(Graph, MemoryFootprintIsPositiveAndGrows) {
  Graph small = GraphBuilder(10).add_edge(0, 1).build();
  GraphBuilder bb(1000);
  for (VertexId i = 0; i + 1 < 1000; ++i) bb.add_edge(i, i + 1);
  Graph big = bb.build();
  EXPECT_GT(small.memory_footprint(), 0u);
  EXPECT_GT(big.memory_footprint(), small.memory_footprint());
}

TEST(Graph, SummaryAndName) {
  Graph g = GraphBuilder(3).add_edge(0, 1).build();
  g.set_name("tiny");
  EXPECT_NE(g.summary().find("tiny"), std::string::npos);
  EXPECT_NE(g.summary().find("n=3"), std::string::npos);
}

TEST(Graph, TransposeDirected) {
  Graph g = GraphBuilder(3, false).add_edge(0, 1).add_edge(0, 2).build();
  Graph t = g.transposed();
  EXPECT_EQ(t.out_degree(0), 0u);
  EXPECT_EQ(t.out_degree(1), 1u);
  EXPECT_EQ(t.out_neighbors(1)[0], 0u);
  EXPECT_EQ(t.out_neighbors(2)[0], 0u);
}

TEST(Graph, TransposeUndirectedIsIdentity) {
  Graph g = GraphBuilder(3).add_edge(0, 1).add_edge(1, 2).build();
  Graph t = g.transposed();
  EXPECT_EQ(t.num_arcs(), g.num_arcs());
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(t.out_degree(v), g.out_degree(v));
}

// Degree-sum handshake property over assorted random builds.
class GraphHandshake : public ::testing::TestWithParam<int> {};

TEST_P(GraphHandshake, DegreeSumEqualsArcCount) {
  const int seed = GetParam();
  GraphBuilder b(50);
  // pseudo-random but deterministic edge pattern
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>((i * 7 + seed) % 50);
    const auto v = static_cast<VertexId>((i * 13 + seed * 3) % 50);
    if (u != v) b.add_edge(u, v);
  }
  Graph g = b.build();
  EdgeIndex sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) sum += g.out_degree(v);
  EXPECT_EQ(sum, g.num_arcs());
  EXPECT_EQ(g.num_arcs() % 2, 0u);  // undirected storage is symmetric
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphHandshake, ::testing::Range(0, 8));

}  // namespace
}  // namespace pregel
