// Immutable undirected simple graph in CSR form.
//
// Every undirected edge {u, v} has a stable edge id in [0, num_edges());
// both arcs (u -> v and v -> u) carry that id. Fractional matchings
// (Section 4 of the paper) are stored as one double per edge id, and
// integral matchings as lists of edge ids, so the id is part of the public
// API.
#ifndef MPCG_GRAPH_GRAPH_H
#define MPCG_GRAPH_GRAPH_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mpcg {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

/// One directed arc in the adjacency of a vertex.
struct Arc {
  VertexId to;
  EdgeId edge;
};

/// Undirected edge endpoints; canonical form has u < v.
struct Edge {
  VertexId u;
  VertexId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class GraphBuilder;

class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Neighbors of v with their edge ids, sorted by neighbor id.
  [[nodiscard]] std::span<const Arc> arcs(VertexId v) const noexcept {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Average degree 2m/n; 0 for an empty graph.
  [[nodiscard]] double average_degree() const noexcept;

  /// Endpoints of edge id e (u < v).
  [[nodiscard]] Edge edge(EdgeId e) const noexcept { return edges_[e]; }

  /// All edges in id order.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// True iff {u, v} is an edge (binary search over sorted adjacency).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept;

  /// Returns the edge id of {u, v}, or `kNoEdge` if absent.
  static constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);
  [[nodiscard]] EdgeId find_edge(VertexId u, VertexId v) const noexcept;

  /// Words of memory a machine holding this whole graph would use
  /// (offsets + arcs + edge list), for MPC memory accounting.
  [[nodiscard]] std::size_t storage_words() const noexcept {
    return offsets_.size() + arcs_.size() + edges_.size();
  }

  /// Builds the graph whose edge list is `edges`, which must already be
  /// canonical: u < v < num_vertices for every edge, and the list strictly
  /// ascending lexicographically (hence duplicate-free). Edge ids are list
  /// positions. One O(n + m) CSR scatter and no sort: lexicographic edge
  /// order fills every adjacency in ascending neighbor order by itself.
  /// Throws std::invalid_argument when `edges` is not canonical.
  [[nodiscard]] static Graph from_canonical_edges(std::size_t num_vertices,
                                                  std::vector<Edge> edges);

 private:
  friend class GraphBuilder;

  std::size_t num_vertices_ = 0;
  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<Arc> arcs_;             // size 2m, sorted per vertex
  std::vector<Edge> edges_;           // size m, canonical (u < v)
};

/// Accumulates edges and produces a simple Graph (self-loops dropped,
/// parallel edges deduplicated).
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_vertices) : num_vertices_(num_vertices) {}

  /// Adds undirected edge {u, v}. Self-loops are ignored. Requires
  /// u, v < num_vertices.
  void add_edge(VertexId u, VertexId v);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] std::size_t pending_edges() const noexcept { return pending_.size(); }

  /// Builds the graph. The builder may be reused afterwards (it is left
  /// empty).
  [[nodiscard]] Graph build();

 private:
  std::size_t num_vertices_;
  std::vector<Edge> pending_;
};

/// Convenience: builds a graph from an explicit edge list.
[[nodiscard]] Graph make_graph(std::size_t num_vertices,
                               const std::vector<std::pair<VertexId, VertexId>>& edges);

}  // namespace mpcg

#endif  // MPCG_GRAPH_GRAPH_H
