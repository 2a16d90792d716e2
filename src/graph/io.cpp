#include "graph/io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "util/check.hpp"

namespace pregel {

namespace {

constexpr std::uint64_t kMagic = 0x50524750'47525048ULL;  // "PRGPGRPH"

struct BinHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t undirected;
  std::uint64_t num_vertices;
  std::uint64_t num_arcs;
};

template <typename T>
void write_raw(std::vector<std::byte>& out, std::size_t& pos, const T* data, std::size_t count) {
  if (count == 0) return;  // empty vectors hand out null data()
  const std::size_t bytes = count * sizeof(T);
  PREGEL_DCHECK(pos + bytes <= out.size());
  std::memcpy(out.data() + pos, data, bytes);
  pos += bytes;
}

template <typename T>
void read_raw(const std::vector<std::byte>& in, std::size_t& pos, T* data, std::size_t count) {
  if (count == 0) return;  // empty vectors hand out null data()
  const std::size_t bytes = count * sizeof(T);
  if (pos + bytes > in.size())
    throw std::runtime_error("deserialize_graph: truncated input");
  std::memcpy(data, in.data() + pos, bytes);
  pos += bytes;
}

}  // namespace

Graph read_edge_list(std::istream& in, bool undirected) {
  std::vector<Edge> raw;
  std::unordered_map<std::uint64_t, VertexId> remap;
  auto dense = [&remap](std::uint64_t id) {
    auto [it, inserted] = remap.try_emplace(id, static_cast<VertexId>(remap.size()));
    return it->second;
  };

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size() || line[i] == '#') continue;

    std::uint64_t ids[2];
    for (int k = 0; k < 2; ++k) {
      while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      const char* begin = line.data() + i;
      const char* end = line.data() + line.size();
      auto [ptr, ec] = std::from_chars(begin, end, ids[k]);
      if (ec != std::errc{} || ptr == begin)
        throw std::runtime_error("read_edge_list: malformed line " + std::to_string(lineno) +
                                 ": '" + line + "'");
      i = static_cast<std::size_t>(ptr - line.data());
    }
    raw.push_back({dense(ids[0]), dense(ids[1])});
  }

  GraphBuilder b(static_cast<VertexId>(remap.size()), undirected);
  for (const Edge& e : raw) b.add_edge(e.src, e.dst);
  return b.build();
}

Graph read_edge_list_file(const std::string& path, bool undirected) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list_file: cannot open " + path);
  return read_edge_list(in, undirected);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# " << g.summary() << "\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.out_neighbors(u)) {
      if (g.undirected() && v < u) continue;  // emit each undirected edge once
      out << u << '\t' << v << '\n';
    }
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_edge_list_file: cannot open " + path);
  write_edge_list(g, out);
}

Graph read_metis(std::istream& in) {
  std::string line;
  // Header: skip comment lines (starting with '%').
  std::uint64_t n = 0, m = 0;
  std::string fmt;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '%') continue;
    std::istringstream header(line);
    if (!(header >> n >> m)) throw std::runtime_error("read_metis: bad header");
    header >> fmt;  // optional
    break;
  }
  if (!fmt.empty() && fmt != "0" && fmt != "00" && fmt != "000")
    throw std::runtime_error("read_metis: weighted format '" + fmt + "' not supported");

  GraphBuilder b(static_cast<VertexId>(n), /*undirected=*/true);
  VertexId v = 0;
  while (v < n && std::getline(in, line)) {
    if (!line.empty() && line[0] == '%') continue;
    std::istringstream row(line);
    std::uint64_t nbr;
    while (row >> nbr) {
      if (nbr < 1 || nbr > n)
        throw std::runtime_error("read_metis: neighbor id out of range at vertex " +
                                 std::to_string(v + 1));
      const auto u = static_cast<VertexId>(nbr - 1);  // 1-based on disk
      if (u > v) b.add_edge(v, u);  // each undirected edge appears twice; keep one
    }
    ++v;
  }
  if (v != n) throw std::runtime_error("read_metis: expected " + std::to_string(n) +
                                       " adjacency lines, got " + std::to_string(v));
  Graph g = b.build();
  if (g.num_edges() != m)
    throw std::runtime_error("read_metis: header claims " + std::to_string(m) +
                             " edges, file encodes " + std::to_string(g.num_edges()));
  return g;
}

Graph read_metis_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_metis_file: cannot open " + path);
  return read_metis(in);
}

void write_metis(const Graph& g, std::ostream& out) {
  if (!g.undirected())
    throw std::invalid_argument("write_metis: format requires an undirected graph");
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    for (VertexId u : g.out_neighbors(v)) {
      if (!first) out << ' ';
      out << (u + 1);  // 1-based
      first = false;
    }
    out << '\n';
  }
}

void write_metis_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_metis_file: cannot open " + path);
  write_metis(g, out);
}

std::vector<std::byte> serialize_graph(const Graph& g) {
  const VertexId n = g.num_vertices();
  const BinHeader h{kMagic, 1, g.undirected() ? 1u : 0u, n, g.num_arcs()};
  // Re-derive CSR arrays through the public API so this stays independent of
  // Graph's internals.
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + g.out_degree(v);
  std::vector<std::byte> out(sizeof h + offsets.size() * sizeof(EdgeIndex) +
                             g.num_arcs() * sizeof(VertexId));
  std::size_t pos = 0;
  write_raw(out, pos, &h, 1);
  write_raw(out, pos, offsets.data(), offsets.size());
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.out_neighbors(v);
    write_raw(out, pos, nbrs.data(), nbrs.size());
  }
  PREGEL_DCHECK(pos == out.size());
  return out;
}

Graph deserialize_graph(const std::vector<std::byte>& bytes) {
  std::size_t pos = 0;
  BinHeader h{};
  read_raw(bytes, pos, &h, 1);
  if (h.magic != kMagic) throw std::runtime_error("deserialize_graph: bad magic");
  if (h.version != 1) throw std::runtime_error("deserialize_graph: unsupported version");

  const auto n = static_cast<VertexId>(h.num_vertices);
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1);
  read_raw(bytes, pos, offsets.data(), offsets.size());
  std::vector<VertexId> adj(h.num_arcs);
  read_raw(bytes, pos, adj.data(), adj.size());

  // Rebuild via the builder to preserve Graph's invariants. Arcs are added
  // as directed regardless of the flag (they are already symmetrized when
  // undirected), then the flag is restored through a directed builder.
  GraphBuilder b(n, /*undirected=*/false);
  b.keep_duplicates().keep_self_loops();
  for (VertexId v = 0; v < n; ++v)
    for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) b.add_edge(v, adj[i]);
  Graph g = b.build();
  if (h.undirected != 0) {
    // Restore the undirected flag: rebuild through an undirected builder
    // using only the canonical arc direction.
    GraphBuilder ub(n, /*undirected=*/true);
    for (VertexId v = 0; v < n; ++v)
      for (VertexId u : g.out_neighbors(v))
        if (v <= u) ub.add_edge(v, u);
    return ub.build();
  }
  return g;
}

}  // namespace pregel
