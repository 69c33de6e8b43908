// Tests for the mCST solvers (exact branch-and-bound, greedy shrink, and
// the Lemma-1 clique shortcut).

#include "core/mcst.h"

#include <gtest/gtest.h>

#include "core/validate.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::BruteForceMcstSize;

TEST(FindCliqueThroughTest, TriangleInCycleWithChord) {
  Graph g = BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const auto clique = FindCliqueThrough(g, 0, 3);
  ASSERT_TRUE(clique.has_value());
  EXPECT_EQ(clique->size(), 3u);
  EXPECT_TRUE(IsConnectedSubset(g, *clique));
  EXPECT_EQ(MinDegreeOfInduced(g, *clique), 2u);
}

TEST(FindCliqueThroughTest, NoCliqueInBipartite) {
  Graph g = gen::CompleteBipartite(4, 4);
  EXPECT_FALSE(FindCliqueThrough(g, 0, 3).has_value());
}

TEST(FindCliqueThroughTest, FullCliqueFound) {
  Graph g = gen::Clique(7);
  const auto clique = FindCliqueThrough(g, 2, 7);
  ASSERT_TRUE(clique.has_value());
  EXPECT_EQ(clique->size(), 7u);
}

TEST(FindCliqueThroughTest, DegreePruning) {
  Graph g = gen::Star(10);
  EXPECT_FALSE(FindCliqueThrough(g, 1, 3).has_value());
}

TEST(GreedyMcstTest, InfeasibleReturnsNull) {
  Graph g = gen::Path(5);
  EXPECT_FALSE(GreedyMcst(g, 2, 2).has_value());
}

TEST(GreedyMcstTest, ResultIsValidAndMinimal) {
  for (uint64_t seed : {1u, 5u, 9u}) {
    Graph g = gen::ErdosRenyiGnp(40, 0.18, seed);
    for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 5) {
      for (uint32_t k = 2; k <= 4; ++k) {
        const auto result = GreedyMcst(g, v0, k);
        if (!result.has_value()) continue;
        EXPECT_TRUE(IsValidCommunity(g, result->members, v0, k));
        // Inclusion-minimality: removing any single vertex breaks it.
        for (VertexId victim : result->members) {
          if (victim == v0) continue;
          std::vector<VertexId> rest;
          for (VertexId m : result->members) {
            if (m != victim) rest.push_back(m);
          }
          EXPECT_FALSE(IsValidCommunity(g, rest, v0, k));
        }
      }
    }
  }
}

TEST(ExactMcstTest, PaperLemma1CliqueIsOptimal) {
  // K4 hanging off a larger sparse structure: mCST(3) = the K4.
  GraphBuilder builder(10);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) builder.AddEdge(u, v);
  }
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  Graph g = builder.Build();
  const SearchResult result = ExactMcst(g, 0, 3);
  ASSERT_TRUE(result.Found());
  EXPECT_EQ(result->members.size(), 4u);
}

TEST(ExactMcstTest, MatchesBruteForceOnTinyGraphs) {
  for (uint64_t seed : {2u, 4u, 8u, 16u}) {
    Graph g = gen::ErdosRenyiGnp(11, 0.35, seed);
    for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 2) {
      for (uint32_t k = 1; k <= 4; ++k) {
        const size_t expect = BruteForceMcstSize(g, v0, k);
        const SearchResult result = ExactMcst(g, v0, k);
        ASSERT_FALSE(result.Interrupted())
            << "seed=" << seed << " v0=" << v0 << " k=" << k;
        EXPECT_EQ(validate::CheckSearchResult(g, result, {v0}, k), "")
            << "seed=" << seed << " v0=" << v0 << " k=" << k;
        if (expect == 0) {
          EXPECT_FALSE(result.has_value());
        } else {
          ASSERT_TRUE(result.has_value());
          EXPECT_EQ(result->members.size(), expect)
              << "seed=" << seed << " v0=" << v0 << " k=" << k;
          EXPECT_TRUE(IsValidCommunity(g, result->members, v0, k));
        }
      }
    }
  }
}

TEST(ExactMcstTest, ThresholdZeroIsSingleton) {
  Graph g = gen::Cycle(6);
  const SearchResult result = ExactMcst(g, 3, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->members.size(), 1u);
}

TEST(ExactMcstTest, CycleNeedsWholeCycleForK2) {
  // On a pure cycle, the only min-degree-2 community is the whole cycle.
  Graph g = gen::Cycle(7);
  const SearchResult result = ExactMcst(g, 0, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->members.size(), 7u);
}

TEST(ExactMcstTest, BudgetExhaustionFallsBackToGreedy) {
  // One guard covers the whole query: a budget of the greedy stage's own
  // charge plus 16 leaves the clique and exact stages 16 search steps.
  Graph g = gen::ErdosRenyiGnp(40, 0.25, 3);
  QueryGuard greedy_guard;
  const SearchResult upper = GreedyMcst(g, 0, 5, &greedy_guard);
  QueryLimits limits;
  limits.work_budget = greedy_guard.spent() + 16;
  QueryGuard guard(limits);
  const SearchResult result = ExactMcst(g, 0, 5, &guard);
  EXPECT_EQ(result.status, Termination::kBudgetExhausted);
  EXPECT_EQ(validate::CheckSearchResult(g, result, {0}, 5), "");
  // The greedy upper bound stands in for the unfinished search.
  ASSERT_TRUE(upper.Found());
  EXPECT_EQ(result.best_so_far.members, upper->members);
  EXPECT_TRUE(IsValidCommunity(g, result.best_so_far.members, 0, 5));
}

}  // namespace
}  // namespace locs
