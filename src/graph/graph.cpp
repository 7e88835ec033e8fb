#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mpcg {

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices_; ++v) {
    best = std::max(best, degree(static_cast<VertexId>(v)));
  }
  return best;
}

double Graph::average_degree() const noexcept {
  if (num_vertices_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices_);
}

bool Graph::has_edge(VertexId u, VertexId v) const noexcept {
  return find_edge(u, v) != kNoEdge;
}

EdgeId Graph::find_edge(VertexId u, VertexId v) const noexcept {
  if (u >= num_vertices_ || v >= num_vertices_) return kNoEdge;
  // Search the smaller adjacency.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto adj = arcs(u);
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), v,
      [](const Arc& a, VertexId target) { return a.to < target; });
  if (it != adj.end() && it->to == v) return it->edge;
  return kNoEdge;
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    throw std::out_of_range("GraphBuilder::add_edge: vertex out of range");
  }
  if (u == v) return;  // simple graph: drop self-loops
  if (u > v) std::swap(u, v);
  pending_.push_back(Edge{u, v});
}

Graph Graph::from_canonical_edges(std::size_t num_vertices,
                                  std::vector<Edge> edges) {
  Graph g;
  g.num_vertices_ = num_vertices;
  g.offsets_.assign(num_vertices + 1, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Edge& ed = edges[e];
    const bool ascending =
        e == 0 || edges[e - 1].u < ed.u ||
        (edges[e - 1].u == ed.u && edges[e - 1].v < ed.v);
    if (ed.u >= ed.v || ed.v >= num_vertices || !ascending) {
      throw std::invalid_argument(
          "Graph::from_canonical_edges: edge " + std::to_string(e) +
          " breaks canonical order (u < v < n, strictly ascending)");
    }
    ++g.offsets_[ed.u + 1];
    ++g.offsets_[ed.v + 1];
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    g.offsets_[v + 1] += g.offsets_[v];
  }
  // Vertex w receives its lower neighbors (edges (u, w), u < w) before its
  // upper ones (edges (w, v)), each group in list order: ascending.
  g.arcs_.resize(2 * edges.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const Edge& ed = edges[e];
    g.arcs_[cursor[ed.u]++] = Arc{ed.v, e};
    g.arcs_[cursor[ed.v]++] = Arc{ed.u, e};
  }
  g.edges_ = std::move(edges);
  return g;
}

Graph GraphBuilder::build() {
  std::sort(pending_.begin(), pending_.end(),
            [](const Edge& a, const Edge& b) {
              return a.u < b.u || (a.u == b.u && a.v < b.v);
            });
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  std::vector<Edge> edges = std::move(pending_);
  pending_ = {};
  return Graph::from_canonical_edges(num_vertices_, std::move(edges));
}

Graph make_graph(std::size_t num_vertices,
                 const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder(num_vertices);
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.build();
}

}  // namespace mpcg
