#include "graph/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pregel {

std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId source) {
  PREGEL_CHECK(source < g.num_vertices());
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::vector<VertexId> frontier{source};
  std::vector<VertexId> next;
  dist[source] = 0;
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (VertexId u : frontier) {
      for (VertexId v : g.out_neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = level;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

ComponentResult connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  // Union-find with path halving + union by size.
  std::vector<VertexId> parent(n);
  std::vector<VertexId> size(n, 1);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  auto find = [&](VertexId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.out_neighbors(u)) {
      VertexId ru = find(u), rv = find(v);
      if (ru == rv) continue;
      if (size[ru] < size[rv]) std::swap(ru, rv);
      parent[rv] = ru;
      size[ru] += size[rv];
    }
  }
  ComponentResult r;
  r.component.resize(n);
  // Canonicalize: label = smallest vertex in component.
  std::vector<VertexId> label(n, kInvalidVertex);
  for (VertexId u = 0; u < n; ++u) {
    const VertexId root = find(u);
    if (label[root] == kInvalidVertex) {
      label[root] = u;  // u is the smallest id reaching this root (ascending scan)
      ++r.count;
    }
    r.component[u] = label[root];
  }
  for (VertexId u = 0; u < n; ++u)
    if (find(u) == u) r.giant_size = std::max(r.giant_size, size[u]);
  return r;
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats d;
  std::uint32_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t deg = g.out_degree(v);
    d.stats.add(deg);
    d.histogram.add(deg);
    if (deg >= best) {
      best = deg;
      d.max_degree_vertex = v;
    }
  }
  return d;
}

DiameterResult effective_diameter(const Graph& g, std::size_t samples, std::uint64_t seed) {
  PREGEL_CHECK(g.num_vertices() > 0);
  Xoshiro256 rng(seed);
  samples = std::min<std::size_t>(samples, g.num_vertices());

  // Cumulative count of reachable pairs by hop distance.
  std::vector<std::uint64_t> by_hop;
  std::uint64_t reachable_pairs = 0;
  double dist_sum = 0.0;
  std::uint32_t max_seen = 0;

  // Distinct sources in draw order. dist_sum adds small integers, so it is
  // exact and the result does not depend on the order either way.
  std::vector<VertexId> chosen;
  chosen.reserve(samples);
  std::vector<std::uint8_t> seen(g.num_vertices(), 0);
  while (chosen.size() < samples) {
    const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    if (!seen[v]) {
      seen[v] = 1;
      chosen.push_back(v);
    }
  }

  for (VertexId src : chosen) {
    const auto dist = bfs_distances(g, src);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t d = dist[v];
      if (d == kUnreachable || v == src) continue;
      if (d >= by_hop.size()) by_hop.resize(d + 1, 0);
      ++by_hop[d];
      ++reachable_pairs;
      dist_sum += d;
      max_seen = std::max(max_seen, d);
    }
  }

  DiameterResult r;
  r.max_seen = max_seen;
  if (reachable_pairs == 0) return r;
  r.mean_distance = dist_sum / static_cast<double>(reachable_pairs);

  // SNAP-style interpolated 90% effective diameter: find hop h where the
  // cumulative fraction crosses 0.9 and interpolate within that hop.
  const double target = 0.9 * static_cast<double>(reachable_pairs);
  std::uint64_t cum = 0;
  for (std::size_t h = 0; h < by_hop.size(); ++h) {
    const std::uint64_t prev = cum;
    cum += by_hop[h];
    if (static_cast<double>(cum) >= target) {
      const double need = target - static_cast<double>(prev);
      const double frac = by_hop[h] ? need / static_cast<double>(by_hop[h]) : 0.0;
      r.effective_90 = (static_cast<double>(h) - 1.0) + frac;
      return r;
    }
  }
  r.effective_90 = max_seen;
  return r;
}

double clustering_coefficient(const Graph& g, std::size_t samples, std::uint64_t seed) {
  PREGEL_CHECK(g.num_vertices() > 0);
  Xoshiro256 rng(seed);
  samples = std::min<std::size_t>(samples, g.num_vertices());
  double sum = 0.0;
  std::size_t counted = 0;
  std::unordered_set<VertexId> nbr;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto neigh = g.out_neighbors(v);
    const std::size_t k = neigh.size();
    if (k < 2) continue;
    nbr.clear();
    nbr.insert(neigh.begin(), neigh.end());
    std::uint64_t links = 0;
    for (VertexId u : neigh)
      for (VertexId w : g.out_neighbors(u))
        if (w != v && nbr.contains(w)) ++links;
    // Each triangle edge counted twice (u->w and w->u in symmetric storage).
    sum += static_cast<double>(links) / (static_cast<double>(k) * static_cast<double>(k - 1));
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

std::vector<double> reference_pagerank(const Graph& g, int iterations, double damping) {
  const VertexId n = g.num_vertices();
  PREGEL_CHECK(n > 0);
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), (1.0 - damping) / n);
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      const auto deg = g.out_degree(v);
      if (deg == 0) {
        dangling += rank[v];
        continue;
      }
      const double share = damping * rank[v] / deg;
      for (VertexId u : g.out_neighbors(v)) next[u] += share;
    }
    const double spread = damping * dangling / n;
    for (VertexId v = 0; v < n; ++v) next[v] += spread;
    rank.swap(next);
  }
  return rank;
}

std::vector<double> reference_betweenness(const Graph& g, const std::vector<VertexId>& roots) {
  const VertexId n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  std::vector<VertexId> all;
  const std::vector<VertexId>* sources = &roots;
  if (roots.empty()) {
    all.resize(n);
    std::iota(all.begin(), all.end(), VertexId{0});
    sources = &all;
  }

  std::vector<std::uint32_t> dist(n);
  std::vector<double> sigma(n), delta(n);
  std::vector<VertexId> order;  // vertices in non-decreasing distance
  order.reserve(n);

  for (VertexId s : *sources) {
    PREGEL_CHECK(s < n);
    std::fill(dist.begin(), dist.end(), kUnreachable);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();

    dist[s] = 0;
    sigma[s] = 1.0;
    std::size_t head = 0;
    order.push_back(s);
    while (head < order.size()) {
      const VertexId u = order[head++];
      for (VertexId v : g.out_neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = dist[u] + 1;
          order.push_back(v);
        }
        if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
      }
    }
    // Accumulate in reverse BFS order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const VertexId w = *it;
      for (VertexId v : g.out_neighbors(w)) {
        if (dist[v] + 1 == dist[w]) {
          // v is a predecessor of w
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (w != s) bc[w] += delta[w];
    }
  }
  return bc;
}

std::vector<std::vector<std::uint32_t>> reference_apsp(const Graph& g,
                                                       const std::vector<VertexId>& roots) {
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(roots.size());
  for (VertexId r : roots) out.push_back(bfs_distances(g, r));
  return out;
}

Graph induced_subgraph(const Graph& g, const std::vector<VertexId>& vertices) {
  std::unordered_map<VertexId, VertexId> remap;
  remap.reserve(vertices.size());
  for (VertexId v : vertices) {
    PREGEL_CHECK_MSG(v < g.num_vertices(), "induced_subgraph: vertex out of range");
    const bool inserted =
        remap.try_emplace(v, static_cast<VertexId>(remap.size())).second;
    PREGEL_CHECK_MSG(inserted, "induced_subgraph: duplicate vertex id");
  }
  GraphBuilder b(static_cast<VertexId>(vertices.size()), g.undirected());
  for (VertexId v : vertices) {
    for (VertexId u : g.out_neighbors(v)) {
      auto it = remap.find(u);
      if (it == remap.end()) continue;
      if (g.undirected() && u < v) continue;  // add each undirected edge once
      b.add_edge(remap[v], it->second);
    }
  }
  Graph out = b.build();
  out.set_name(g.name().empty() ? "subgraph" : g.name() + "-sub");
  return out;
}

Graph largest_component_subgraph(const Graph& g) {
  const auto cc = connected_components(g);
  // Find the label of the largest component.
  std::unordered_map<VertexId, VertexId> sizes;
  for (VertexId v = 0; v < g.num_vertices(); ++v) ++sizes[cc.component[v]];
  VertexId best_label = 0, best_size = 0;
  for (const auto& [label, size] : sizes) {
    if (size > best_size || (size == best_size && label < best_label)) {
      best_label = label;
      best_size = size;
    }
  }
  std::vector<VertexId> members;
  members.reserve(best_size);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (cc.component[v] == best_label) members.push_back(v);
  Graph out = induced_subgraph(g, members);
  out.set_name(g.name().empty() ? "giant" : g.name() + "-giant");
  return out;
}

std::uint64_t reference_triangles(const Graph& g) {
  // For each oriented edge u < v, count common neighbors w > v; each
  // triangle {u < v < w} is found exactly once. Adjacency lists are sorted.
  std::uint64_t total = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nu = g.out_neighbors(u);
    for (VertexId v : nu) {
      if (v <= u) continue;
      const auto nv = g.out_neighbors(v);
      std::size_t i = 0, j = 0;
      while (i < nu.size() && j < nv.size()) {
        if (nu[i] <= v) {
          ++i;
        } else if (nv[j] <= v) {
          ++j;
        } else if (nu[i] < nv[j]) {
          ++i;
        } else if (nv[j] < nu[i]) {
          ++j;
        } else {
          ++total;
          ++i;
          ++j;
        }
      }
    }
  }
  return total;
}

}  // namespace pregel
