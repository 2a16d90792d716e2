#include "partition/multilevel.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pregel {

namespace {

/// Weighted graph used internally across coarsening levels, in CSR form:
/// vertex v's arcs are (nbr[i], ew[i]) for i in [off[v], off[v+1]).
struct WGraph {
  std::vector<std::uint64_t> vweight;  // per vertex
  std::vector<EdgeIndex> off;          // size n+1
  std::vector<VertexId> nbr;
  std::vector<std::uint64_t> ew;

  VertexId n() const { return static_cast<VertexId>(vweight.size()); }
  std::uint64_t total_weight() const {
    return std::accumulate(vweight.begin(), vweight.end(), std::uint64_t{0});
  }
};

WGraph from_graph(const Graph& g) {
  WGraph w;
  const VertexId n = g.num_vertices();
  w.vweight.assign(n, 1);
  w.off.reserve(static_cast<std::size_t>(n) + 1);
  w.off.push_back(0);
  w.nbr.reserve(g.num_arcs());
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : g.out_neighbors(v)) w.nbr.push_back(u);
    w.off.push_back(w.nbr.size());
  }
  w.ew.assign(w.nbr.size(), 1);
  return w;
}

/// The reverse of every arc of `g`, weights kept; vweight stays empty.
WGraph transpose(const WGraph& g) {
  const VertexId n = g.n();
  WGraph t;
  t.off.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const VertexId u : g.nbr) ++t.off[u + 1];
  for (VertexId v = 0; v < n; ++v) t.off[v + 1] += t.off[v];
  t.nbr.resize(g.nbr.size());
  t.ew.resize(g.nbr.size());
  std::vector<EdgeIndex> fill(t.off.begin(), t.off.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    for (EdgeIndex i = g.off[v]; i < g.off[v + 1]; ++i) {
      const EdgeIndex slot = fill[g.nbr[i]]++;
      t.nbr[slot] = v;
      t.ew[slot] = g.ew[i];
    }
  }
  return t;
}

/// One level of heavy-edge matching; returns the coarse graph and the
/// fine->coarse vertex map.
struct CoarseLevel {
  WGraph graph;
  std::vector<VertexId> fine_to_coarse;
};

CoarseLevel coarsen_once(const WGraph& g, Xoshiro256& rng) {
  const VertexId n = g.n();
  std::vector<VertexId> match(n, kInvalidVertex);
  std::vector<VertexId> visit(n);
  std::iota(visit.begin(), visit.end(), VertexId{0});
  for (VertexId i = n; i > 1; --i) std::swap(visit[i - 1], visit[rng.next_below(i)]);

  for (VertexId v : visit) {
    if (match[v] != kInvalidVertex) continue;
    VertexId best = kInvalidVertex;
    std::uint64_t best_w = 0;
    for (EdgeIndex i = g.off[v]; i < g.off[v + 1]; ++i) {
      const VertexId u = g.nbr[i];
      if (u != v && match[u] == kInvalidVertex && g.ew[i] >= best_w) {
        best = u;
        best_w = g.ew[i];
      }
    }
    if (best == kInvalidVertex) {
      match[v] = v;  // stays single
    } else {
      match[v] = best;
      match[best] = v;
    }
  }

  // Coarse ids follow the lower member's id, so `leader[cv]` is the smaller
  // of cv's (at most two) members and match[leader[cv]] the other.
  CoarseLevel lvl;
  lvl.fine_to_coarse.assign(n, kInvalidVertex);
  std::vector<VertexId> leader;
  for (VertexId v = 0; v < n; ++v) {
    if (lvl.fine_to_coarse[v] != kInvalidVertex) continue;
    const auto cv = static_cast<VertexId>(leader.size());
    lvl.fine_to_coarse[v] = cv;
    lvl.fine_to_coarse[match[v]] = cv;
    leader.push_back(v);
  }
  const auto next = static_cast<VertexId>(leader.size());

  WGraph& cg = lvl.graph;
  cg.vweight.assign(next, 0);
  for (VertexId v = 0; v < n; ++v) cg.vweight[lvl.fine_to_coarse[v]] += g.vweight[v];
  // Accumulate edge weights between coarse vertices. The next level's
  // heavy-edge matching breaks ties by adjacency order, and the arcs are
  // appended in this map's iteration order. That order depends on the
  // bucket count, which clear() keeps, so the assignments depend on there
  // being one map per call, cleared per coarse vertex.
  cg.off.reserve(static_cast<std::size_t>(next) + 1);
  cg.off.push_back(0);
  cg.nbr.reserve(g.nbr.size());
  cg.ew.reserve(g.nbr.size());
  std::unordered_map<VertexId, std::uint64_t> acc;
  for (VertexId cv = 0; cv < next; ++cv) {
    acc.clear();
    auto gather = [&](VertexId v) {
      for (EdgeIndex i = g.off[v]; i < g.off[v + 1]; ++i) {
        const VertexId cu = lvl.fine_to_coarse[g.nbr[i]];
        if (cu != cv) acc[cu] += g.ew[i];
      }
    };
    gather(leader[cv]);
    if (match[leader[cv]] != leader[cv]) gather(match[leader[cv]]);
    for (const auto& [cu, w] : acc) {
      cg.nbr.push_back(cu);
      cg.ew.push_back(w);
    }
    cg.off.push_back(cg.nbr.size());
  }
  cg.nbr.shrink_to_fit();
  cg.ew.shrink_to_fit();
  return lvl;
}

/// Greedy balanced region growing on the coarsest graph: grow partitions
/// 0..k-2 one at a time via weight-bounded BFS from an unassigned seed;
/// leftover vertices go to the last partition.
std::vector<PartitionId> initial_partition(const WGraph& g, PartitionId parts,
                                           Xoshiro256& rng) {
  const VertexId n = g.n();
  std::vector<PartitionId> assign(n, parts);
  const double target =
      static_cast<double>(g.total_weight()) / static_cast<double>(parts);

  // Vertices are only ever assigned, so the lowest unassigned id only grows.
  VertexId cursor = 0;
  auto first_unassigned = [&]() {
    while (cursor < n && assign[cursor] != parts) ++cursor;
    return cursor < n ? cursor : kInvalidVertex;
  };

  std::vector<VertexId> queue;
  for (PartitionId p = 0; p + 1 < parts; ++p) {
    double weight = 0.0;
    // Seed: random unassigned vertex.
    VertexId seed = kInvalidVertex;
    for (int tries = 0; tries < 64 && seed == kInvalidVertex; ++tries) {
      const auto c = static_cast<VertexId>(rng.next_below(n));
      if (assign[c] == parts) seed = c;
    }
    if (seed == kInvalidVertex) seed = first_unassigned();
    if (seed == kInvalidVertex) break;  // everything assigned

    // Weight-bounded BFS from `from` into partition p, continuing from the
    // queue's head: earlier growths stop only with the queue drained or the
    // target reached.
    queue.clear();
    std::size_t head = 0;
    auto take = [&](VertexId v) {
      assign[v] = p;
      weight += static_cast<double>(g.vweight[v]);
      queue.push_back(v);
    };
    auto grow = [&](VertexId from) {
      take(from);
      while (weight < target && head < queue.size()) {
        const VertexId v = queue[head++];
        for (EdgeIndex i = g.off[v]; i < g.off[v + 1]; ++i) {
          const VertexId u = g.nbr[i];
          if (assign[u] == parts && weight < target) take(u);
        }
      }
    };
    grow(seed);
    // If BFS exhausted the component before reaching target weight, jump to
    // the lowest unassigned vertex and continue growing this same partition.
    while (weight < target) {
      const VertexId extra = first_unassigned();
      if (extra == kInvalidVertex) break;
      grow(extra);
    }
  }
  for (VertexId v = 0; v < n; ++v)
    if (assign[v] == parts) assign[v] = parts - 1;
  return assign;
}

/// Greedy boundary refinement: repeatedly move a vertex to the partition
/// holding the most of its out-arc weight, if that beats its own partition
/// and the balance constraint allows. Greedy (no hill-climbing) but applied
/// at every level of the hierarchy, which is where multilevel schemes get
/// their power.
///
/// METIS-style bookkeeping keeps each vertex's internal (`id`) and external
/// (`ed`) out-arc weight. No other partition can hold more than ed[v], so a
/// vertex with ed[v] <= id[v] cannot move and is skipped without a scan.
/// `in` lists every vertex's in-arcs; a move updates those sources' counts.
void refine(const WGraph& g, const WGraph& in, std::vector<PartitionId>& assign,
            PartitionId parts, int passes, double tolerance, Xoshiro256& rng) {
  const VertexId n = g.n();
  std::vector<double> part_weight(parts, 0.0);
  for (VertexId v = 0; v < n; ++v)
    part_weight[assign[v]] += static_cast<double>(g.vweight[v]);
  const double max_weight = static_cast<double>(g.total_weight()) /
                            static_cast<double>(parts) * tolerance;

  std::vector<std::uint64_t> id(n, 0);
  std::vector<std::uint64_t> ed(n, 0);
  auto recount = [&](VertexId v) {
    id[v] = ed[v] = 0;
    for (EdgeIndex i = g.off[v]; i < g.off[v + 1]; ++i)
      (assign[g.nbr[i]] == assign[v] ? id[v] : ed[v]) += g.ew[i];
  };
  for (VertexId v = 0; v < n; ++v) recount(v);

  std::vector<std::uint64_t> conn(parts, 0);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});

  for (int pass = 0; pass < passes; ++pass) {
    for (VertexId i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
    std::uint64_t moves = 0;
    for (VertexId v : order) {
      if (ed[v] == 0 || ed[v] <= id[v]) continue;
      const PartitionId from = assign[v];
      std::fill(conn.begin(), conn.end(), 0);
      for (EdgeIndex i = g.off[v]; i < g.off[v + 1]; ++i) conn[assign[g.nbr[i]]] += g.ew[i];
      PartitionId best = from;
      std::uint64_t best_conn = conn[from];
      for (PartitionId p = 0; p < parts; ++p) {
        if (p == from) continue;
        if (part_weight[p] + static_cast<double>(g.vweight[v]) > max_weight) continue;
        if (conn[p] > best_conn) {
          best_conn = conn[p];
          best = p;
        }
      }
      if (best != from) {
        assign[v] = best;
        part_weight[from] -= static_cast<double>(g.vweight[v]);
        part_weight[best] += static_cast<double>(g.vweight[v]);
        ++moves;
        for (EdgeIndex i = in.off[v]; i < in.off[v + 1]; ++i) {
          const VertexId w = in.nbr[i];
          if (assign[w] == from) {
            id[w] -= in.ew[i];
            ed[w] += in.ew[i];
          } else if (assign[w] == best) {
            ed[w] -= in.ew[i];
            id[w] += in.ew[i];
          }
        }
        recount(v);  // after the sources, so a self-loop ends up internal
      }
    }
    if (moves == 0) break;
  }
}

}  // namespace

MultilevelPartitioner::MultilevelPartitioner(Options options) : opt_(options) {
  PREGEL_CHECK_MSG(opt_.imbalance_tolerance >= 1.0,
                   "MultilevelPartitioner: tolerance must be >= 1");
  PREGEL_CHECK_MSG(opt_.refine_passes >= 0, "MultilevelPartitioner: passes must be >= 0");
}

Partitioning MultilevelPartitioner::partition(const Graph& g, PartitionId num_parts) const {
  PREGEL_CHECK(num_parts > 0);
  const VertexId n = g.num_vertices();
  if (num_parts == 1 || n == 0)
    return {std::vector<PartitionId>(n, 0), std::max<PartitionId>(num_parts, 1)};

  Xoshiro256 rng(opt_.seed);
  const VertexId stop_at =
      std::max<VertexId>(opt_.coarsen_target_per_part * num_parts, 64);

  // Phase 1: coarsen. graphs[0] is the input; maps[i] sends graphs[i]'s
  // vertices to graphs[i+1]'s. Each level roughly halves, so keeping the
  // whole hierarchy costs ~2x the input graph.
  std::vector<WGraph> graphs;
  std::vector<std::vector<VertexId>> maps;
  graphs.push_back(from_graph(g));
  while (graphs.back().n() > stop_at) {
    CoarseLevel lvl = coarsen_once(graphs.back(), rng);
    // Matching stalls (e.g. a star) once coarse size stops shrinking.
    if (lvl.graph.n() >= graphs.back().n()) break;
    maps.push_back(std::move(lvl.fine_to_coarse));
    graphs.push_back(std::move(lvl.graph));
  }

  // A symmetrized input coarsens to symmetric levels, so each level is its
  // own in-arc list; a directed one needs every level transposed.
  auto refine_level = [&](const WGraph& level, std::vector<PartitionId>& assign) {
    const WGraph reversed = g.undirected() ? WGraph{} : transpose(level);
    refine(level, g.undirected() ? level : reversed, assign, num_parts, opt_.refine_passes,
           opt_.imbalance_tolerance, rng);
  };

  // Phase 2: initial partition on the coarsest graph.
  std::vector<PartitionId> assign = initial_partition(graphs.back(), num_parts, rng);
  refine_level(graphs.back(), assign);

  // Phase 3: uncoarsen, refining at every level.
  for (std::size_t lvl = maps.size(); lvl-- > 0;) {
    std::vector<PartitionId> fine_assign(maps[lvl].size());
    for (VertexId v = 0; v < fine_assign.size(); ++v) fine_assign[v] = assign[maps[lvl][v]];
    assign = std::move(fine_assign);
    graphs.resize(lvl + 1);  // free the coarser levels
    refine_level(graphs[lvl], assign);
  }

  return {std::move(assign), num_parts};
}

}  // namespace pregel
