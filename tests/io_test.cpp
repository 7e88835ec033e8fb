#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/io.h"
#include "test_util.h"

namespace mpcg {
namespace {

using testing::make_family;

TEST(GraphIo, RoundTripUnweighted) {
  const Graph g = make_family("gnp_sparse", 120, 3);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const auto loaded = read_edge_list(buffer);
  ASSERT_EQ(loaded.graph.num_vertices(), g.num_vertices());
  ASSERT_EQ(loaded.graph.num_edges(), g.num_edges());
  EXPECT_FALSE(loaded.weights.has_value());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded.graph.edge(e).u, g.edge(e).u);
    EXPECT_EQ(loaded.graph.edge(e).v, g.edge(e).v);
  }
}

TEST(GraphIo, RoundTripWeighted) {
  const Graph g = make_family("gnp_sparse", 80, 5);
  Rng rng(5);
  const auto w = uniform_weights(g, 0.5, 2.0, rng);
  std::stringstream buffer;
  write_edge_list(buffer, g, &w);
  const auto loaded = read_edge_list(buffer);
  ASSERT_TRUE(loaded.weights.has_value());
  ASSERT_EQ(loaded.weights->size(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR((*loaded.weights)[e], w[e], 1e-6);
  }
}

TEST(GraphIo, SkipsComments) {
  std::stringstream in("# a comment\n3 2\n# another\n0 1\n1 2\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_vertices(), 3U);
  EXPECT_EQ(loaded.graph.num_edges(), 2U);
}

TEST(GraphIo, RejectsMalformedHeader) {
  std::stringstream in("nonsense\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsTruncatedEdgeList) {
  std::stringstream in("4 3\n0 1\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsOutOfRangeEndpoint) {
  std::stringstream in("2 1\n0 5\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, RejectsMixedWeightedness) {
  std::stringstream in("3 2\n0 1 2.5\n1 2\n");
  EXPECT_THROW((void)read_edge_list(in), std::runtime_error);
}

/// The message read_edge_list throws for `text`, or "" if it parses.
std::string read_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)read_edge_list(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(GraphIo, RejectsJunkAfterEndpoints) {
  const std::string err = read_error("# c\n3 2\n0 1 junk\n1 2\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("'junk'"), std::string::npos) << err;
}

TEST(GraphIo, RejectsNanWeight) {
  const std::string err = read_error("3 2\n0 1 1.0\n1 2 nan\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("non-finite weight 'nan'"), std::string::npos) << err;
}

TEST(GraphIo, RejectsInfWeight) {
  const std::string err = read_error("3 2\n0 1 inf\n1 2 1.0\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("non-finite weight 'inf'"), std::string::npos) << err;
}

TEST(GraphIo, RejectsNegativeWeight) {
  const std::string err = read_error("3 2\n0 1 2.5\n\n1 2 -0.5\n");
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("negative weight '-0.5'"), std::string::npos) << err;
}

TEST(GraphIo, RejectsTokenAfterWeight) {
  const std::string err = read_error("3 1\n0 1 2.5 7\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("unexpected token '7'"), std::string::npos) << err;
}

TEST(GraphIo, RejectsNegativeVertexCount) {
  // "-1" must not wrap to a huge unsigned count.
  const std::string err = read_error("# c\n-1 1\n0 0\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("bad vertex count '-1'"), std::string::npos) << err;
}

TEST(GraphIo, RejectsVertexCountBeyondVertexIds) {
  // 2^32 + 1 vertices: ids would be truncated by the 32-bit VertexId.
  const std::string err = read_error("4294967297 1\n0 1\n");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("vertex count '4294967297' exceeds 4294967295"),
            std::string::npos)
      << err;
}

TEST(GraphIo, RejectsTokenAfterHeader) {
  const std::string err = read_error("3 1 junk\n0 1\n");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("unexpected token 'junk' after the header"),
            std::string::npos)
      << err;
}

TEST(GraphIo, RejectsRowsBeyondDeclaredCount) {
  const std::string err = read_error("3 1\n0 1\n# c\n1 2\n");
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("beyond the 1 declared"), std::string::npos) << err;
}

TEST(GraphIo, WeightSizeMismatchThrows) {
  const Graph g = path_graph(3);
  std::vector<double> w{1.0};
  std::stringstream out;
  EXPECT_THROW(write_edge_list(out, g, &w), std::invalid_argument);
}

TEST(GraphIo, FileRoundTrip) {
  const Graph g = path_graph(5);
  const std::string path = ::testing::TempDir() + "/mpcg_io_test.txt";
  write_edge_list_file(path, g);
  const auto loaded = read_edge_list_file(path);
  EXPECT_EQ(loaded.graph.num_edges(), 4U);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW((void)read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(GraphIo, DedupesAndDropsSelfLoopsLikeBuilder) {
  std::stringstream in("3 4\n0 1\n1 0\n2 2\n1 2\n");
  const auto loaded = read_edge_list(in);
  EXPECT_EQ(loaded.graph.num_edges(), 2U);
}

}  // namespace
}  // namespace mpcg
