#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "graph/validation.h"
#include "util/rng.h"

namespace mpcg {
namespace {

Graph triangle_plus_pendant() {
  // 0-1-2 triangle, 3 hanging off 0.
  return make_graph(4, {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
}

TEST(GraphBuilder, DedupesParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1U);
  EXPECT_EQ(g.degree(0), 1U);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1U);
}

TEST(GraphBuilder, ThrowsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::out_of_range);
}

TEST(Graph, EdgesAreCanonical) {
  const Graph g = triangle_plus_pendant();
  for (const Edge& e : g.edges()) EXPECT_LT(e.u, e.v);
}

TEST(Graph, ArcsSortedAndConsistent) {
  const Graph g = triangle_plus_pendant();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto arcs = g.arcs(v);
    for (std::size_t i = 1; i < arcs.size(); ++i) {
      EXPECT_LT(arcs[i - 1].to, arcs[i].to);
    }
    for (const Arc& a : arcs) {
      const Edge e = g.edge(a.edge);
      EXPECT_TRUE((e.u == v && e.v == a.to) || (e.v == v && e.u == a.to));
    }
  }
}

TEST(Graph, DegreesAndMaxDegree) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(g.degree(0), 3U);
  EXPECT_EQ(g.degree(3), 1U);
  EXPECT_EQ(g.max_degree(), 3U);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, FindEdge) {
  const Graph g = triangle_plus_pendant();
  EXPECT_NE(g.find_edge(0, 3), Graph::kNoEdge);
  EXPECT_EQ(g.find_edge(0, 3), g.find_edge(3, 0));
  EXPECT_EQ(g.find_edge(1, 3), Graph::kNoEdge);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, ArcEdgeIdsRoundTrip) {
  Rng rng(4);
  const Graph g = erdos_renyi_gnp(200, 0.05, rng);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge ed = g.edge(e);
    EXPECT_EQ(g.find_edge(ed.u, ed.v), e);
  }
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_vertices(), 0U);
  EXPECT_EQ(g.num_edges(), 0U);
  EXPECT_EQ(g.max_degree(), 0U);
}

TEST(Graph, StorageWordsPositive) {
  const Graph g = triangle_plus_pendant();
  EXPECT_GE(g.storage_words(), g.num_edges() * 3);
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  const Graph g = triangle_plus_pendant();
  const auto sub = induced_subgraph(g, {0, 1, 3});
  EXPECT_EQ(sub.graph.num_vertices(), 3U);
  EXPECT_EQ(sub.graph.num_edges(), 2U);  // {0,1} and {0,3}
  // Edge mapping points back to real parent edges.
  for (EdgeId le = 0; le < sub.graph.num_edges(); ++le) {
    const Edge ed = sub.graph.edge(le);
    const EdgeId pe = sub.to_parent_edge[le];
    const Edge ped = g.edge(pe);
    const VertexId pu = sub.to_parent_vertex[ed.u];
    const VertexId pv = sub.to_parent_vertex[ed.v];
    EXPECT_TRUE((ped.u == pu && ped.v == pv) || (ped.u == pv && ped.v == pu));
  }
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const Graph g = triangle_plus_pendant();
  EXPECT_THROW(induced_subgraph(g, {0, 0}), std::invalid_argument);
}

TEST(InducedSubgraph, CountMatchesBuild) {
  Rng rng(8);
  const Graph g = erdos_renyi_gnp(100, 0.1, rng);
  std::vector<VertexId> half;
  for (VertexId v = 0; v < 50; ++v) half.push_back(v);
  EXPECT_EQ(count_induced_edges(g, half),
            induced_subgraph(g, half).graph.num_edges());
}

TEST(Graph, FromCanonicalEdgesMatchesTheBuilder) {
  Rng rng(9);
  const Graph g = erdos_renyi_gnp(80, 0.1, rng);
  const std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  const Graph h = Graph::from_canonical_edges(g.num_vertices(), edges);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.arcs(v);
    const auto b = h.arcs(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_EQ(a[i].edge, b[i].edge);
    }
  }
}

TEST(Graph, FromCanonicalEdgesRejectsNonCanonicalLists) {
  const std::vector<std::vector<Edge>> bad = {
      {{1, 0}},             // u > v
      {{1, 1}},             // self-loop
      {{0, 3}},             // v out of range
      {{0, 2}, {0, 1}},     // descending
      {{0, 1}, {0, 1}},     // duplicate
  };
  for (const auto& edges : bad) {
    EXPECT_THROW((void)Graph::from_canonical_edges(3, edges),
                 std::invalid_argument);
  }
}

/// Asserts that two induced subgraphs are the same graph with the same
/// parent maps.
void expect_same_subgraph(const InducedSubgraph& a, const InducedSubgraph& b) {
  ASSERT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (EdgeId e = 0; e < a.graph.num_edges(); ++e) {
    EXPECT_EQ(a.graph.edge(e), b.graph.edge(e)) << "edge " << e;
  }
  EXPECT_EQ(a.to_parent_vertex, b.to_parent_vertex);
  EXPECT_EQ(a.to_parent_edge, b.to_parent_edge);
}

TEST(InducedSubgraph, UnsortedSelectionMatchesTheBuilderReference) {
  Rng rng(10);
  const Graph g = erdos_renyi_gnp(120, 0.08, rng);
  std::vector<VertexId> pick;
  for (VertexId v = 0; v < 120; v += 2) pick.push_back((v * 37) % 120);
  const auto sub = induced_subgraph(g, pick);
  // Reference: every parent edge inside the selection, through the
  // GraphBuilder's sort, parent ids recovered by lookup.
  constexpr VertexId kAbsent = static_cast<VertexId>(-1);
  std::vector<VertexId> local(120, kAbsent);
  for (std::size_t i = 0; i < pick.size(); ++i) {
    local[pick[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder builder(pick.size());
  for (const Edge& e : g.edges()) {
    if (local[e.u] != kAbsent && local[e.v] != kAbsent) {
      builder.add_edge(local[e.u], local[e.v]);
    }
  }
  InducedSubgraph ref;
  ref.graph = builder.build();
  ref.to_parent_vertex = pick;
  for (const Edge& e : ref.graph.edges()) {
    ref.to_parent_edge.push_back(g.find_edge(pick[e.u], pick[e.v]));
  }
  expect_same_subgraph(sub, ref);
}

TEST(InducedSubgraph, NestedSortedSelectionsComposeToTheDirectOne) {
  // integral_matching's outer loop relies on this: inducing on S' from the
  // subgraph induced on S ⊇ S' (both ascending), then composing the parent
  // maps, is byte-identical to inducing on S' directly.
  Rng rng(11);
  const Graph g = erdos_renyi_gnp(150, 0.06, rng);
  std::vector<VertexId> outer;
  std::vector<VertexId> inner_local;
  std::vector<VertexId> inner;
  for (VertexId v = 0; v < 150; ++v) {
    if (v % 3 == 0) continue;
    if (v % 4 != 1) {
      inner_local.push_back(static_cast<VertexId>(outer.size()));
      inner.push_back(v);
    }
    outer.push_back(v);
  }
  const auto first = induced_subgraph(g, outer);
  auto nested = induced_subgraph(first.graph, inner_local);
  for (VertexId& v : nested.to_parent_vertex) v = first.to_parent_vertex[v];
  for (EdgeId& e : nested.to_parent_edge) e = first.to_parent_edge[e];
  expect_same_subgraph(nested, induced_subgraph(g, inner));
}

TEST(InducedSubgraph, EmptySelection) {
  const Graph g = triangle_plus_pendant();
  const auto sub = induced_subgraph(g, {});
  EXPECT_EQ(sub.graph.num_vertices(), 0U);
  EXPECT_EQ(sub.graph.num_edges(), 0U);
}

TEST(Validation, IndependentSet) {
  const Graph g = triangle_plus_pendant();
  EXPECT_TRUE(is_independent_set(g, {1, 3}));
  EXPECT_FALSE(is_independent_set(g, {0, 1}));
  EXPECT_FALSE(is_independent_set(g, {1, 1}));  // duplicate
  EXPECT_TRUE(is_independent_set(g, {}));
}

TEST(Validation, MaximalIndependentSet) {
  const Graph g = triangle_plus_pendant();
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 3}));
  EXPECT_FALSE(is_maximal_independent_set(g, {1}));   // 3 addable
  EXPECT_FALSE(is_maximal_independent_set(g, {0, 1}));  // not independent
}

TEST(Validation, Matching) {
  const Graph g = triangle_plus_pendant();
  const EdgeId e12 = g.find_edge(1, 2);
  const EdgeId e03 = g.find_edge(0, 3);
  const EdgeId e01 = g.find_edge(0, 1);
  EXPECT_TRUE(is_matching(g, {e12, e03}));
  EXPECT_FALSE(is_matching(g, {e01, e03}));        // share vertex 0
  EXPECT_FALSE(is_matching(g, {e12, e12}));        // duplicate edge
  EXPECT_TRUE(is_matching(g, {}));
}

TEST(Validation, MaximalMatching) {
  const Graph g = triangle_plus_pendant();
  const EdgeId e12 = g.find_edge(1, 2);
  const EdgeId e03 = g.find_edge(0, 3);
  EXPECT_TRUE(is_maximal_matching(g, {e12, e03}));
  EXPECT_FALSE(is_maximal_matching(g, {e12}));  // {0,3} addable
}

TEST(Validation, VertexCover) {
  const Graph g = triangle_plus_pendant();
  EXPECT_TRUE(is_vertex_cover(g, {0, 1, 2}));
  EXPECT_TRUE(is_vertex_cover(g, {0, 1, 2, 3}));
  EXPECT_FALSE(is_vertex_cover(g, {1, 2}));  // misses {0,3}
  EXPECT_FALSE(is_vertex_cover(g, {0}));
}

TEST(Validation, FractionalMatching) {
  const Graph g = triangle_plus_pendant();
  std::vector<double> x(g.num_edges(), 0.0);
  EXPECT_TRUE(is_fractional_matching(g, x));
  for (auto& xe : x) xe = 1.0 / 3.0;
  EXPECT_TRUE(is_fractional_matching(g, x));  // deg<=3, load<=1
  x[g.find_edge(0, 1)] = 1.0;
  EXPECT_FALSE(is_fractional_matching(g, x));  // vertex 0 overloaded
  x.assign(g.num_edges(), 0.0);
  x[0] = -0.5;
  EXPECT_FALSE(is_fractional_matching(g, x));  // negative
  EXPECT_FALSE(is_fractional_matching(g, {0.0}));  // wrong size
}

TEST(Validation, LoadsAndWeight) {
  const Graph g = triangle_plus_pendant();
  std::vector<double> x(g.num_edges(), 0.0);
  x[g.find_edge(0, 3)] = 0.25;
  const auto loads = vertex_loads(g, x);
  EXPECT_DOUBLE_EQ(loads[0], 0.25);
  EXPECT_DOUBLE_EQ(loads[3], 0.25);
  EXPECT_DOUBLE_EQ(loads[1], 0.0);
  EXPECT_DOUBLE_EQ(fractional_weight(x), 0.25);
}

TEST(Validation, MatchedFlagsAndWeights) {
  const Graph g = triangle_plus_pendant();
  const EdgeId e12 = g.find_edge(1, 2);
  const auto flags = matched_flags(g, {e12});
  EXPECT_TRUE(flags[1]);
  EXPECT_TRUE(flags[2]);
  EXPECT_FALSE(flags[0]);
  std::vector<double> w(g.num_edges(), 2.0);
  EXPECT_DOUBLE_EQ(matching_weight({e12}, w), 2.0);
}

}  // namespace
}  // namespace mpcg
