#include <gtest/gtest.h>

#include "topo/graph.hpp"

namespace slimfly {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(0);
  g.finalize();
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.is_regular());
}

TEST(Graph, BasicConstruction) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, DuplicateEdgesDeduplicated) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, OutOfRangeRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
}

TEST(Graph, EdgesListSortedPairs) {
  Graph g(4);
  g.add_edge(3, 1);
  g.add_edge(2, 0);
  g.finalize();
  auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  for (auto [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Graph, QueriesBeforeFinalizeThrow) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.has_edge(0, 1), std::logic_error);
  EXPECT_THROW(g.neighbor_index(0, 1), std::logic_error);
  EXPECT_THROW(g.edges(), std::logic_error);
}

TEST(Graph, NeighborsSortedAfterFinalize) {
  Graph g(5);
  g.add_edge(0, 4);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.finalize();
  EXPECT_EQ(g.neighbors(0), (std::vector<int>{2, 3, 4}));
}

TEST(Graph, NeighborIndexIsAdjacencyPosition) {
  Graph g(5);
  g.add_edge(0, 4);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.finalize();
  EXPECT_EQ(g.neighbor_index(0, 2), 0);
  EXPECT_EQ(g.neighbor_index(0, 3), 1);
  EXPECT_EQ(g.neighbor_index(0, 4), 2);
  EXPECT_EQ(g.neighbor_index(4, 0), 0);
  EXPECT_EQ(g.neighbor_index(0, 1), -1);  // not adjacent
  EXPECT_EQ(g.neighbor_index(0, 0), -1);
  EXPECT_EQ(g.neighbor_index(1, 0), -1);  // isolated vertex
  EXPECT_THROW(g.neighbor_index(0, 5), std::out_of_range);
  EXPECT_THROW(g.neighbor_index(-1, 0), std::out_of_range);
}

}  // namespace
}  // namespace slimfly
