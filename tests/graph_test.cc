// Tests for the CSR Graph, GraphBuilder, and basic accessors.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "gen/classic.h"
#include "graph/builder.h"
#include "graph/invariants.h"
#include "graph/ordering.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::ToSet;

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_EQ(g.MinDegree(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphTest, SingleEdge) {
  Graph g = BuildGraph(2, {{0, 1}});
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(GraphTest, IsolatedVerticesAllowed) {
  Graph g = BuildGraph(5, {{0, 1}});
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_EQ(g.MinDegree(), 0u);
}

TEST(GraphBuilderTest, DropsSelfLoops) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, CollapsesDuplicatesBothOrientations) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphBuilderTest, AdjacencySortedAscending) {
  Graph g = BuildGraph(6, {{3, 5}, {3, 1}, {3, 4}, {3, 0}, {3, 2}});
  const auto nbrs = g.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 5u);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
  }
}

TEST(GraphBuilderTest, ReusableAfterBuild) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  Graph g1 = builder.Build();
  builder.AddEdge(2, 3);
  Graph g2 = builder.Build();
  EXPECT_EQ(g1.NumEdges(), 1u);
  EXPECT_EQ(g2.NumEdges(), 2u);
}

TEST(GraphTest, CliqueDegrees) {
  Graph g = gen::Clique(6);
  EXPECT_EQ(g.NumEdges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 5u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 5.0);
}

TEST(GraphTest, HasEdgeNegative) {
  Graph g = gen::Cycle(5);
  EXPECT_TRUE(g.HasEdge(0, 4));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(1, 3));
}

TEST(GraphTest, FromCsrRoundTrip) {
  Graph original = gen::Grid(3, 4);
  Graph copy = Graph::FromCsr(
      {original.offsets().begin(), original.offsets().end()},
      {original.neighbors().begin(), original.neighbors().end()});
  EXPECT_EQ(copy.NumVertices(), original.NumVertices());
  EXPECT_EQ(copy.NumEdges(), original.NumEdges());
  EXPECT_EQ(ValidateGraph(copy), "");
}

TEST(GraphInvariantsTest, ValidatesClassicFamilies) {
  EXPECT_EQ(ValidateGraph(gen::Clique(8)), "");
  EXPECT_EQ(ValidateGraph(gen::Cycle(9)), "");
  EXPECT_EQ(ValidateGraph(gen::Star(10)), "");
  EXPECT_EQ(ValidateGraph(gen::Grid(4, 5)), "");
  EXPECT_EQ(ValidateGraph(gen::Barbell(4, 2)), "");
  EXPECT_EQ(ValidateGraph(gen::CompleteBipartite(3, 4)), "");
  EXPECT_EQ(ValidateGraph(gen::PaperFigure1()), "");
}

TEST(GraphInvariantsTest, DetectsAsymmetry) {
  // Hand-craft a broken CSR: 0 -> 1 but not 1 -> 0. Bypass the builder.
  std::vector<uint64_t> offsets = {0, 1, 1};
  std::vector<VertexId> neighbors = {1};
  // FromCsr's debug validation does not check symmetry; ValidateGraph must.
  Graph g = Graph::FromCsr(std::move(offsets), std::move(neighbors));
  EXPECT_NE(ValidateGraph(g), "");
}

TEST(PaperFigure1Test, MatchesExampleOneStructure) {
  Graph g = gen::PaperFigure1();
  EXPECT_EQ(g.NumVertices(), 14u);
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  // V1 = {a,b,c,d,e} has minimum induced degree 3 (Example 1).
  const std::vector<VertexId> v1 = {v('a'), v('b'), v('c'), v('d'), v('e')};
  EXPECT_EQ(MinDegreeOfInduced(g, v1), 3u);
  // Adding f drops the minimum degree to 1 (Example 1).
  std::vector<VertexId> v1f = v1;
  v1f.push_back(v('f'));
  EXPECT_EQ(MinDegreeOfInduced(g, v1f), 1u);
  // a is adjacent to exactly b, d, e (Example 3).
  EXPECT_EQ(ToSet({g.Neighbors(v('a')).begin(), g.Neighbors(v('a')).end()}),
            ToSet({v('b'), v('d'), v('e')}));
  // Example 3: S = {a,b,d,e} has δ = 2; adding c raises it to 3, adding f
  // lowers it to 1.
  const std::vector<VertexId> s = {v('a'), v('b'), v('d'), v('e')};
  EXPECT_EQ(MinDegreeOfInduced(g, s), 2u);
  std::vector<VertexId> sc = s;
  sc.push_back(v('c'));
  EXPECT_EQ(MinDegreeOfInduced(g, sc), 3u);
  std::vector<VertexId> sf = s;
  sf.push_back(v('f'));
  EXPECT_EQ(MinDegreeOfInduced(g, sf), 1u);
}

TEST(PaperFigure1Test, LabelRoundTrip) {
  for (char c = 'a'; c <= 'n'; ++c) {
    EXPECT_EQ(gen::Figure1Label(gen::Figure1Vertex(c)), std::string(1, c));
  }
}

// Property: the counting CSR build and the rank-transpose ordering match
// simple references (a std::set per vertex; a comparator sort per list)
// on random edge soups with duplicates in both orientations, self-loops
// and isolated vertices.
TEST(GraphBuilderPropertyTest, MatchesSetAndSortReferences) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    const auto n = static_cast<VertexId>(rng() % 60);
    const size_t m = n == 0 ? 0 : rng() % (4 * n + 1);
    EdgeList edges;
    for (size_t i = 0; i < m; ++i) {
      const auto u = static_cast<VertexId>(rng() % n);
      // Skew toward repeats and self-loops.
      const auto v = rng() % 8 == 0 ? u : static_cast<VertexId>(rng() % n);
      edges.emplace_back(u, v);
      if (rng() % 4 == 0) edges.emplace_back(v, u);
    }

    std::vector<std::set<VertexId>> adjacency(n);
    for (const auto& [u, v] : edges) {
      if (u == v) continue;
      adjacency[u].insert(v);
      adjacency[v].insert(u);
    }
    std::vector<uint64_t> offsets = {0};
    std::vector<VertexId> neighbors;
    for (const auto& list : adjacency) {
      neighbors.insert(neighbors.end(), list.begin(), list.end());
      offsets.push_back(neighbors.size());
    }

    GraphBuilder builder(n);
    builder.AddEdges(edges);
    const Graph built = builder.Build();
    const Graph one_shot = BuildGraph(n, edges);
    ASSERT_EQ(built.offsets(), offsets);
    ASSERT_EQ(built.neighbors(), neighbors);
    ASSERT_EQ(one_shot.offsets(), offsets);
    ASSERT_EQ(one_shot.neighbors(), neighbors);

    std::vector<VertexId> ordered = neighbors;
    for (VertexId v = 0; v < n; ++v) {
      std::sort(ordered.begin() + static_cast<ptrdiff_t>(offsets[v]),
                ordered.begin() + static_cast<ptrdiff_t>(offsets[v + 1]),
                [&](VertexId a, VertexId b) {
                  if (adjacency[a].size() != adjacency[b].size()) {
                    return adjacency[a].size() > adjacency[b].size();
                  }
                  return a < b;
                });
    }
    const OrderedAdjacency by_degree(built);
    ASSERT_EQ(by_degree.offsets(), offsets);
    ASSERT_EQ(by_degree.neighbors(), ordered);
  }
}

}  // namespace
}  // namespace locs
