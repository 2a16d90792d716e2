#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "partition/partitioner.hpp"
#include "partition/quality.hpp"
#include "partition/streaming.hpp"

namespace pregel {
namespace {

TEST(Partitioning, ValidatesAssignmentRange) {
  EXPECT_THROW(Partitioning({0, 1, 5}, 2), std::logic_error);
  EXPECT_THROW(Partitioning({}, 0), std::logic_error);
  EXPECT_NO_THROW(Partitioning({0, 1, 1}, 2));
}

TEST(Partitioning, SizesAndMembers) {
  Partitioning p({0, 1, 0, 1, 1}, 2);
  const auto sizes = p.part_sizes();
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(p.members(0), (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(p.members(1), (std::vector<VertexId>{1, 3, 4}));
  EXPECT_THROW(p.members(2), std::logic_error);
}

TEST(HashPartitioner, CoversAllPartsRoughlyEvenly) {
  Graph g = erdos_renyi(8000, 20000, 1);
  const auto p = HashPartitioner{}.partition(g, 8);
  const auto sizes = p.part_sizes();
  const double expect = 1000.0;
  for (auto s : sizes) EXPECT_NEAR(static_cast<double>(s), expect, expect * 0.15);
}

TEST(HashPartitioner, DeterministicAndSeedSensitive) {
  Graph g = path_graph(100);
  const auto a = HashPartitioner{1}.partition(g, 4);
  const auto b = HashPartitioner{1}.partition(g, 4);
  const auto c = HashPartitioner{2}.partition(g, 4);
  EXPECT_EQ(a.assignment(), b.assignment());
  EXPECT_NE(a.assignment(), c.assignment());
}

TEST(RangePartitioner, ContiguousBalancedRanges) {
  Graph g = path_graph(10);
  const auto p = RangePartitioner{}.partition(g, 3);
  const auto sizes = p.part_sizes();
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), VertexId{0}), 10u);
  for (auto s : sizes) {
    EXPECT_GE(s, 3u);
    EXPECT_LE(s, 4u);
  }
  // Monotone non-decreasing assignment over ids.
  for (VertexId v = 1; v < 10; ++v) EXPECT_GE(p.part_of(v), p.part_of(v - 1));
}

TEST(RangePartitioner, LowCutOnPath) {
  Graph g = path_graph(1000);
  const auto q = evaluate_partition(g, RangePartitioner{}.partition(g, 8));
  EXPECT_EQ(q.cut_arcs, 14u);  // 7 cut edges x 2 arcs
}

TEST(Quality, HashNearlyAllRemoteOnCluelessGraph) {
  Graph g = erdos_renyi(2000, 10000, 3);
  const auto q = evaluate_partition(g, HashPartitioner{}.partition(g, 8));
  // Random assignment to 8 parts leaves ~7/8 of edges remote.
  EXPECT_NEAR(q.remote_edge_fraction, 0.875, 0.03);
  EXPECT_LT(q.vertex_balance, 1.2);
}

TEST(Quality, MismatchedSizesThrow) {
  Graph g = path_graph(5);
  Partitioning p({0, 1}, 2);
  EXPECT_THROW(evaluate_partition(g, p), std::logic_error);
}

TEST(Quality, PerPartArraysConsistent) {
  Graph g = barabasi_albert(500, 3, 7);
  const auto p = HashPartitioner{}.partition(g, 4);
  const auto q = evaluate_partition(g, p);
  EdgeIndex arc_sum = 0, cut_sum = 0;
  VertexId v_sum = 0;
  for (PartitionId i = 0; i < 4; ++i) {
    arc_sum += q.part_arcs[i];
    cut_sum += q.part_cut_arcs[i];
    v_sum += q.part_vertices[i];
  }
  EXPECT_EQ(arc_sum, g.num_arcs());
  EXPECT_EQ(cut_sum, q.cut_arcs);
  EXPECT_EQ(v_sum, g.num_vertices());
}

class StreamingHeuristics : public ::testing::TestWithParam<StreamHeuristic> {};

TEST_P(StreamingHeuristics, ProducesCompleteBalancedAssignment) {
  Graph g = barabasi_albert(3000, 4, 11);
  StreamingPartitioner sp(GetParam());
  const auto p = sp.partition(g, 8);
  ASSERT_EQ(p.num_vertices(), g.num_vertices());
  const auto sizes = p.part_sizes();
  const double avg = 3000.0 / 8.0;
  for (auto s : sizes) EXPECT_LT(static_cast<double>(s), avg * 1.35)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(All, StreamingHeuristics,
                         ::testing::Values(StreamHeuristic::kRandom,
                                           StreamHeuristic::kChunking,
                                           StreamHeuristic::kBalanced,
                                           StreamHeuristic::kGreedy,
                                           StreamHeuristic::kLinearGreedy,
                                           StreamHeuristic::kExpGreedy));

TEST(StreamingPartitioner, LdgBeatsRandomOnClusteredGraph) {
  Graph g = watts_strogatz(4000, 8, 0.05, 5);
  const auto random =
      evaluate_partition(g, StreamingPartitioner(StreamHeuristic::kRandom).partition(g, 8));
  const auto ldg = evaluate_partition(
      g, StreamingPartitioner(StreamHeuristic::kLinearGreedy).partition(g, 8));
  EXPECT_LT(ldg.remote_edge_fraction, random.remote_edge_fraction * 0.7);
}

TEST(StreamingPartitioner, BfsOrderHelpsGreedyWhenIdsAreShuffled) {
  // On a graph whose ids carry no locality, BFS arrival order ensures each
  // vertex has already-assigned neighbors, so greedy makes informed choices.
  Graph g = relabel_vertices(watts_strogatz(4000, 8, 0.05, 6), 99);
  const auto natural = evaluate_partition(
      g, StreamingPartitioner(StreamHeuristic::kLinearGreedy, StreamOrder::kNatural)
             .partition(g, 8));
  const auto bfs = evaluate_partition(
      g, StreamingPartitioner(StreamHeuristic::kLinearGreedy, StreamOrder::kBfs)
             .partition(g, 8));
  EXPECT_LT(bfs.remote_edge_fraction, natural.remote_edge_fraction + 0.05);
}

TEST(StreamingPartitioner, NaturalOrderExploitsIdLocality) {
  // The flip side: Watts-Strogatz natural ids ARE the ring lattice, so
  // natural-order LDG should be excellent there. This documents why the
  // dataset analogs shuffle labels before partitioning experiments.
  Graph g = watts_strogatz(4000, 8, 0.05, 6);
  const auto natural = evaluate_partition(
      g, StreamingPartitioner(StreamHeuristic::kLinearGreedy, StreamOrder::kNatural)
             .partition(g, 8));
  EXPECT_LT(natural.remote_edge_fraction, 0.15);
}

TEST(StreamingPartitioner, RejectsSlackBelowOne) {
  EXPECT_THROW(StreamingPartitioner(StreamHeuristic::kLinearGreedy, StreamOrder::kNatural,
                                    0.5),
               std::logic_error);
}

TEST(MultilevelPartitioner, PerfectCutOnTwoCliques) {
  // Two K10 cliques joined by one edge must split at the bridge.
  GraphBuilder b(20);
  for (VertexId u = 0; u < 10; ++u)
    for (VertexId v = u + 1; v < 10; ++v) b.add_edge(u, v);
  for (VertexId u = 10; u < 20; ++u)
    for (VertexId v = u + 1; v < 20; ++v) b.add_edge(u, v);
  b.add_edge(0, 10);
  Graph g = b.build();
  const auto q =
      evaluate_partition(g, MultilevelPartitioner{}.partition(g, 2));
  EXPECT_EQ(q.cut_arcs, 2u);  // the single bridge, both directions
  EXPECT_DOUBLE_EQ(q.vertex_balance, 1.0);
}

TEST(MultilevelPartitioner, GridSplitsWithLowCut) {
  Graph g = grid_graph(32, 32);
  const auto q = evaluate_partition(g, MultilevelPartitioner{}.partition(g, 4));
  // A perfect 4-way split of a 32x32 grid cuts 64 edges = 128 arcs out of
  // 3968 arcs (~3.2%); allow plenty of slack but demand far below hash (75%).
  EXPECT_LT(q.remote_edge_fraction, 0.15);
  EXPECT_LT(q.vertex_balance, 1.1);
}

TEST(MultilevelPartitioner, BeatsHashAndLdgOnSmallWorld) {
  Graph g = relabel_vertices(watts_strogatz(4000, 8, 0.05, 9), 123);
  const auto hash = evaluate_partition(g, HashPartitioner{}.partition(g, 8));
  const auto ldg = evaluate_partition(
      g, StreamingPartitioner(StreamHeuristic::kLinearGreedy).partition(g, 8));
  const auto ml = evaluate_partition(g, MultilevelPartitioner{}.partition(g, 8));
  EXPECT_LT(ml.remote_edge_fraction, ldg.remote_edge_fraction);
  EXPECT_LT(ldg.remote_edge_fraction, hash.remote_edge_fraction);
}

TEST(MultilevelPartitioner, RespectsBalanceTolerance) {
  Graph g = barabasi_albert(2000, 3, 13);
  MultilevelPartitioner::Options o;
  o.imbalance_tolerance = 1.05;
  const auto q = evaluate_partition(g, MultilevelPartitioner{o}.partition(g, 8));
  EXPECT_LT(q.vertex_balance, 1.10);  // small slop from coarse granularity
}

TEST(MultilevelPartitioner, SinglePartIsTrivial) {
  Graph g = path_graph(10);
  const auto p = MultilevelPartitioner{}.partition(g, 1);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(p.part_of(v), 0u);
}

TEST(MultilevelPartitioner, ValidatesOptions) {
  MultilevelPartitioner::Options bad;
  bad.imbalance_tolerance = 0.9;
  EXPECT_THROW(MultilevelPartitioner{bad}, std::logic_error);
}

TEST(MultilevelPartitioner, DeterministicInSeed) {
  Graph g = watts_strogatz(1000, 6, 0.1, 3);
  MultilevelPartitioner::Options o;
  o.seed = 99;
  const auto a = MultilevelPartitioner{o}.partition(g, 4);
  const auto b = MultilevelPartitioner{o}.partition(g, 4);
  EXPECT_EQ(a.assignment(), b.assignment());
}

// FNV-1a-style fold of an assignment, in vertex order.
std::uint64_t assignment_digest(const Partitioning& p) {
  std::uint64_t h = 1469598103934665603ULL;
  for (PartitionId x : p.assignment()) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  return h;
}

// A directed multigraph derived from `g`: keeps arc (v,u) iff
// (7u + 3v) % 5 != 0, doubles the first kept out-arc of every v with
// v % 3 == 0 and adds a self-loop on every v with v % 7 == 0.
Graph directed_multigraph(const Graph& g) {
  GraphBuilder b(g.num_vertices(), /*undirected=*/false);
  b.keep_duplicates().keep_self_loops();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    for (VertexId u : g.out_neighbors(v)) {
      if ((7ULL * u + 3ULL * v) % 5 == 0) continue;
      b.add_edge(v, u);
      if (first && v % 3 == 0) b.add_edge(v, u);
      first = false;
    }
    if (v % 7 == 0) b.add_edge(v, v);
  }
  return b.build();
}

// The multilevel partitioner's exact output feeds every METIS-like modeled
// number (Figs 8-14, the subgraph models, the SSSP perfbench workload), so
// its assignments are pinned: a speed-up must reproduce them bit for bit.
TEST(MultilevelPartitioner, PinnedAssignmentDigests) {
  const Graph cp = dataset_analog("CP", 100, 7);
  const Graph wg = dataset_analog("WG", 100, 7);
  const Graph multi = directed_multigraph(cp);
  ASSERT_FALSE(multi.undirected());
  struct Case {
    const char* name;
    const Graph* g;
    PartitionId parts;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"CP/100", &cp, 4, 0x9ac152f7b9542b18ULL},
      {"CP/100", &cp, 8, 0xd50830eff1850aa4ULL},
      {"WG/100", &wg, 4, 0xaf9d7229bb8dd0b4ULL},
      {"WG/100", &wg, 8, 0x2bb130758cf11786ULL},
      {"CP/100 directed multigraph", &multi, 4, 0x6f39fef7b809758aULL},
      {"CP/100 directed multigraph", &multi, 8, 0xed94c60c405cfbbfULL},
  };
  MultilevelPartitioner::Options o;
  o.seed = 2013;
  for (const Case& c : cases) {
    EXPECT_EQ(assignment_digest(MultilevelPartitioner{o}.partition(*c.g, c.parts)), c.digest)
        << c.name << " k=" << c.parts;
  }
}

// The benchmark's own partition and a coarse-map rehash, pinned like
// PinnedAssignmentDigests: any change to the coarsening order moves them.
TEST(MultilevelPartitioner, PinnedBenchmarkInputDigests) {
  // sssp-cp-ckpt-migrate's input: the CP analog at 1/10, seed 2013, 8 parts.
  const Graph cp = dataset_analog("CP", 10, 2013);
  // A path with a hub at its far end. Every earlier coarse vertex has at
  // most four coarse neighbours, so the accumulator holds 13 buckets when
  // the hub's coarse vertex arrives with over a hundred distinct ones and
  // rehashes while gathering it.
  const VertexId n = 400;
  GraphBuilder b(n, /*undirected=*/true);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  for (VertexId v = 0; v + 1 < n; v += 3) b.add_edge(v, n - 1);
  const Graph hub = b.build();
  struct Case {
    const char* name;
    const Graph* g;
    PartitionId parts;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"CP/10", &cp, 8, 0xa7fdd604a9ca7265ULL},
      {"hub path", &hub, 2, 0x0ba7166346b9ad1bULL},
      {"hub path", &hub, 4, 0xde05db9ff18eb319ULL},
  };
  MultilevelPartitioner::Options o;
  o.seed = 2013;
  for (const Case& c : cases) {
    EXPECT_EQ(assignment_digest(MultilevelPartitioner{o}.partition(*c.g, c.parts)), c.digest)
        << c.name << " k=" << c.parts;
  }
}

// All partitioners, all part counts: every vertex assigned, all parts used.
class AllPartitioners
    : public ::testing::TestWithParam<std::tuple<int, PartitionId>> {};

TEST_P(AllPartitioners, CompleteAssignmentAllPartsNonEmpty) {
  const auto [which, parts] = GetParam();
  std::unique_ptr<Partitioner> p;
  switch (which) {
    case 0: p = std::make_unique<HashPartitioner>(); break;
    case 1: p = std::make_unique<RangePartitioner>(); break;
    case 2: p = std::make_unique<StreamingPartitioner>(); break;
    default: p = std::make_unique<MultilevelPartitioner>(); break;
  }
  Graph g = barabasi_albert(1200, 3, 21);
  const auto part = p->partition(g, parts);
  ASSERT_EQ(part.num_vertices(), g.num_vertices());
  const auto sizes = part.part_sizes();
  ASSERT_EQ(sizes.size(), parts);
  for (auto s : sizes) EXPECT_GT(s, 0u) << p->name();
}

INSTANTIATE_TEST_SUITE_P(Matrix, AllPartitioners,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values<PartitionId>(2, 4, 8)));

}  // namespace
}  // namespace pregel
