#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"
#include "util/units.hpp"

namespace pregel {

std::string Graph::summary() const {
  std::string s = "n=" + format_count(n_) + " m=" + format_count(num_edges());
  s += undirected_ ? " (undirected)" : " (directed)";
  if (!name_.empty()) s = name_ + ": " + s;
  return s;
}

Graph Graph::transposed() const {
  if (undirected_) return *this;
  GraphBuilder b(n_, /*undirected=*/false);
  b.keep_duplicates();  // transpose preserves multiplicity; input is simple anyway
  b.keep_self_loops();
  for (VertexId v = 0; v < n_; ++v)
    for (VertexId u : out_neighbors(v)) b.add_edge(u, v);
  Graph t = b.build();
  t.set_name(name_.empty() ? "" : name_ + "-T");
  return t;
}

GraphBuilder::GraphBuilder(VertexId num_vertices, bool undirected)
    : n_(num_vertices), undirected_(undirected) {}

GraphBuilder& GraphBuilder::add_edge(VertexId src, VertexId dst) {
  if (src >= n_ || dst >= n_)
    throw std::invalid_argument("GraphBuilder::add_edge: vertex id out of range");
  edges_.push_back({src, dst});
  return *this;
}

GraphBuilder& GraphBuilder::add_edges(std::span<const Edge> edges) {
  for (const Edge& e : edges) add_edge(e.src, e.dst);
  return *this;
}

Graph GraphBuilder::build() {
  Graph g;
  g.n_ = n_;
  g.undirected_ = undirected_;
  auto& offsets = g.offsets_;
  auto& adj = g.adj_;

  // Counting sort by source: offsets[v] first holds v's arc count, then
  // (inclusive prefix sum) the end of v's row; scattering each arc to
  // --offsets[src] leaves offsets[v] at the start of v's row.
  offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
  auto keep = [this](const Edge& e) { return !drop_loops_ || e.src != e.dst; };
  for (const Edge& e : edges_) {
    if (!keep(e)) continue;
    ++offsets[e.src];
    if (undirected_) ++offsets[e.dst];
  }
  for (std::size_t i = 1; i <= n_; ++i) offsets[i] += offsets[i - 1];
  adj.resize(offsets[n_]);
  for (const Edge& e : edges_) {
    if (!keep(e)) continue;
    adj[--offsets[e.src]] = e.dst;
    if (undirected_) adj[--offsets[e.dst]] = e.src;
  }
  edges_.clear();
  edges_.shrink_to_fit();

  // Order each row by destination and, when deduping, squeeze out repeats
  // in place. Rows only move left, so row v's old bounds are still intact
  // when v is reached.
  EdgeIndex write = 0;
  for (VertexId v = 0; v < n_; ++v) {
    const EdgeIndex begin = offsets[v];
    const EdgeIndex end = offsets[v + 1];
    std::sort(adj.data() + begin, adj.data() + end);
    offsets[v] = write;
    for (EdgeIndex i = begin; i < end; ++i)
      if (!dedupe_ || write == offsets[v] || adj[write - 1] != adj[i]) adj[write++] = adj[i];
  }
  offsets[n_] = write;
  if (write != adj.size()) {
    adj.resize(write);
    adj.shrink_to_fit();
  }
  PREGEL_DCHECK(adj.capacity() == adj.size());
  return g;
}

}  // namespace pregel
