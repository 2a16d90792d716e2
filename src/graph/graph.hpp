// Immutable CSR graph — the in-memory representation every other module
// consumes. Vertices are dense 32-bit ids [0, n); edges are stored as a
// compressed sparse row structure of out-neighbors. The paper's algorithms
// (BC, APSP, PageRank on SNAP social/web graphs) treat graphs as unweighted;
// we keep the representation unweighted and let algorithms attach per-edge
// state through their message types.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace pregel {

using VertexId = std::uint32_t;
using EdgeIndex = std::uint64_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// A directed edge in builder form.
struct Edge {
  VertexId src;
  VertexId dst;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Immutable out-neighbor CSR graph.
///
/// Construction goes through GraphBuilder (or the generators). The structure
/// may represent a directed graph or a symmetrized (undirected) one; the
/// `undirected()` flag records which, and symmetrized graphs store each
/// undirected edge as two arcs.
class Graph {
 public:
  Graph() = default;

  VertexId num_vertices() const noexcept { return n_; }
  /// Number of stored arcs (for undirected graphs this is 2x the number of
  /// undirected edges).
  EdgeIndex num_arcs() const noexcept { return static_cast<EdgeIndex>(adj_.size()); }
  /// Logical edge count: arcs for directed graphs, arcs/2 for undirected.
  EdgeIndex num_edges() const noexcept { return undirected_ ? num_arcs() / 2 : num_arcs(); }
  bool undirected() const noexcept { return undirected_; }
  bool empty() const noexcept { return n_ == 0; }

  std::span<const VertexId> out_neighbors(VertexId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }
  std::uint32_t out_degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  double average_degree() const noexcept {
    return n_ == 0 ? 0.0 : static_cast<double>(num_arcs()) / static_cast<double>(n_);
  }

  /// Modeled in-memory footprint of the structure (used by the cloud memory
  /// meter to charge each worker for its partition of the graph).
  Bytes memory_footprint() const noexcept {
    return static_cast<Bytes>(offsets_.capacity() * sizeof(EdgeIndex) +
                              adj_.capacity() * sizeof(VertexId));
  }

  /// Human-readable one-liner: "n=82,168 m=948,464 (undirected)".
  std::string summary() const;

  /// Reverse of every arc; an undirected graph transposes to itself
  /// (returned by value — the copy is intentional and cheap relative to use).
  Graph transposed() const;

  /// A name tag for reports ("WG-analog" etc.); empty by default.
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  friend class GraphBuilder;

  VertexId n_ = 0;
  bool undirected_ = false;
  std::vector<EdgeIndex> offsets_;  // size n_+1
  std::vector<VertexId> adj_;       // size num_arcs()
  std::string name_;
};

/// Accumulates edges, then produces a CSR Graph.
///
/// Duplicate arcs and self-loops are removed by default (SNAP-style social
/// graphs are simple graphs; BC/APSP assume simple traversal).
///
/// Order contract: the built graph is a function of the multiset of added
/// edges and the flags, never of their insertion order. Each row lists its
/// out-neighbors ascending (repeats kept adjacent when duplicates are kept),
/// so the arcs in CSR order are exactly the (src, dst)-sorted arc list.
/// Every generator, loader, transpose and induced subgraph builds through
/// here, so this order is what every partition, traversal and digest sees.
///
/// Cost: build() is a counting sort by source, O(n + m) for m kept arcs,
/// plus a sort of each row, O(sum of d log d) over out-degrees d. Beyond
/// the pending edges and the graph itself it allocates nothing, except one
/// copy of the arc array when deduplication shrinks it (so no capacity is
/// left over: memory_footprint() counts exactly n + 1 offsets and m arcs).
class GraphBuilder {
 public:
  /// `num_vertices` fixes the id space [0, n). Edges referencing ids >= n are
  /// rejected with std::invalid_argument at add time.
  explicit GraphBuilder(VertexId num_vertices, bool undirected = true);

  GraphBuilder& add_edge(VertexId src, VertexId dst);
  GraphBuilder& add_edges(std::span<const Edge> edges);

  VertexId num_vertices() const noexcept { return n_; }
  std::size_t pending_edges() const noexcept { return edges_.size(); }

  /// Keep duplicate arcs / self loops (off by default).
  GraphBuilder& keep_duplicates(bool keep = true) {
    dedupe_ = !keep;
    return *this;
  }
  GraphBuilder& keep_self_loops(bool keep = true) {
    drop_loops_ = !keep;
    return *this;
  }

  /// Build consumes the accumulated edges (builder resets to empty).
  Graph build();

 private:
  VertexId n_;
  bool undirected_;
  bool dedupe_ = true;
  bool drop_loops_ = true;
  std::vector<Edge> edges_;
};

}  // namespace pregel
