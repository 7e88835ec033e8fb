#include "graph/subgraph.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

namespace mpcg {

namespace {

constexpr VertexId kAbsent = static_cast<VertexId>(-1);

/// Sorts the row edges[row..] (one local u, distinct v) by v, permuting
/// the parallel parent-id list alongside.
void sort_row(std::vector<Edge>& edges, std::vector<EdgeId>& parents,
              std::size_t row, std::vector<std::pair<VertexId, EdgeId>>& tmp) {
  tmp.clear();
  for (std::size_t j = row; j < edges.size(); ++j) {
    tmp.emplace_back(edges[j].v, parents[j]);
  }
  std::sort(tmp.begin(), tmp.end());
  for (std::size_t j = row; j < edges.size(); ++j) {
    edges[j].v = tmp[j - row].first;
    parents[j] = tmp[j - row].second;
  }
}

}  // namespace

InducedSubgraph induced_subgraph(const Graph& g,
                                 const std::vector<VertexId>& vertices) {
  std::vector<VertexId> local_of(g.num_vertices(), kAbsent);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    if (v >= g.num_vertices()) {
      throw std::out_of_range("induced_subgraph: vertex out of range");
    }
    if (local_of[v] != kAbsent) {
      throw std::invalid_argument("induced_subgraph: duplicate vertex");
    }
    local_of[v] = static_cast<VertexId>(i);
  }

  // Emit the local edges row by row in canonical order: row lu holds the
  // neighbors with a larger local id, ascending, which is exactly the
  // lexicographic order from_canonical_edges wants (and the order
  // GraphBuilder assigns edge ids in), so the parent ids ride along
  // without a sort. A sorted selection keeps parent order, so its rows
  // are the parent's upper arcs, already ascending; any other selection
  // scans the whole adjacency and sorts each row.
  const bool sorted = std::is_sorted(vertices.begin(), vertices.end());
  std::vector<Edge> edges;
  std::vector<std::pair<VertexId, EdgeId>> row_scratch;
  InducedSubgraph out;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const auto lu = static_cast<VertexId>(i);
    std::span<const Arc> adj = g.arcs(vertices[i]);
    if (sorted) {
      adj = adj.subspan(static_cast<std::size_t>(
          std::upper_bound(adj.begin(), adj.end(), vertices[i],
                           [](VertexId v, const Arc& a) { return v < a.to; }) -
          adj.begin()));
    }
    const std::size_t row = edges.size();
    for (const Arc& a : adj) {
      const VertexId lv = local_of[a.to];
      if (lv != kAbsent && lv > lu) {
        edges.push_back(Edge{lu, lv});
        out.to_parent_edge.push_back(a.edge);
      }
    }
    if (!sorted && edges.size() - row > 1) {
      sort_row(edges, out.to_parent_edge, row, row_scratch);
    }
  }
  out.graph = Graph::from_canonical_edges(vertices.size(), std::move(edges));
  out.to_parent_vertex = vertices;
  return out;
}

std::size_t count_induced_edges(const Graph& g,
                                const std::vector<VertexId>& vertices) {
  std::vector<bool> in_set(g.num_vertices(), false);
  for (const VertexId v : vertices) in_set[v] = true;
  std::size_t count = 0;
  for (const VertexId v : vertices) {
    for (const Arc& a : g.arcs(v)) {
      if (a.to > v && in_set[a.to]) ++count;
    }
  }
  return count;
}

}  // namespace mpcg
