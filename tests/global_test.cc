// Tests for global CST/CSM search (§3), cross-validated against brute
// force and against each other.

#include "core/global.h"

#include <gtest/gtest.h>

#include "gen/classic.h"
#include "graph/builder.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::BruteForceCsmGoodness;
using testing::ToSet;

TEST(GlobalCstTest, CliqueWholeGraph) {
  Graph g = gen::Clique(6);
  const auto result = GlobalCst(g, 0, 5);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->members.size(), 6u);
  EXPECT_EQ(result->min_degree, 5u);
}

TEST(GlobalCstTest, InfeasibleThreshold) {
  Graph g = gen::Clique(6);
  EXPECT_FALSE(GlobalCst(g, 0, 6).has_value());
}

TEST(GlobalCstTest, ThresholdZeroAlwaysSolvable) {
  Graph g = gen::Path(4);
  const auto result = GlobalCst(g, 0, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, 0, 0));
}

TEST(GlobalCstTest, PaperExample4) {
  // Example 4: query a. CST(3) = {a,b,c,d,e}; CST(2) answers exist.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto cst3 = GlobalCst(g, v('a'), 3);
  ASSERT_TRUE(cst3.has_value());
  EXPECT_EQ(ToSet(cst3->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  const auto cst2 = GlobalCst(g, v('a'), 2);
  ASSERT_TRUE(cst2.has_value());
  EXPECT_TRUE(IsValidCommunity(g, cst2->members, v('a'), 2));
}

TEST(GlobalCstTest, PaperExample6AdmissibleSet) {
  // Example 6: for query e, the CST(2) maximal answer is V - {m, n}.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto cst2 = GlobalCst(g, v('e'), 2);
  ASSERT_TRUE(cst2.has_value());
  std::set<VertexId> expected;
  for (char c = 'a'; c <= 'l'; ++c) expected.insert(v(c));
  EXPECT_EQ(ToSet(cst2->members), expected);
}

TEST(GlobalCstTest, StatsCountWholeGraph) {
  Graph g = gen::Cycle(20);
  const obs::QueryTelemetry stats = GlobalCst(g, 0, 2).telemetry;
  EXPECT_EQ(stats.TotalVisited(), 20u);
  EXPECT_EQ(stats.TotalScanned(), 40u);
  EXPECT_EQ(stats.answer_size, 20u);
}

TEST(GlobalCsmTest, PaperExample2BestCommunityForJ) {
  // The best community for j is the 4-core {g,...,l} (Example 5; see the
  // PaperFigure1 doc comment about Example 2's typo).
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const Community best = *GlobalCsm(g, v('j'));
  EXPECT_EQ(best.min_degree, 4u);
  EXPECT_EQ(ToSet(best.members),
            ToSet({v('g'), v('h'), v('i'), v('j'), v('k'), v('l')}));
}

TEST(GlobalCsmTest, PaperExample6BestCommunityForE) {
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const Community best = *GlobalCsm(g, v('e'));
  EXPECT_EQ(best.min_degree, 3u);
  EXPECT_EQ(ToSet(best.members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
}

TEST(GlobalCsmTest, IsolatedVertex) {
  Graph g = BuildGraph(3, {{0, 1}});
  const Community best = *GlobalCsm(g, 2);
  EXPECT_EQ(best.min_degree, 0u);
  EXPECT_EQ(best.members, std::vector<VertexId>{2});
}

TEST(GlobalCsmTest, GreedyAgreesOnClassicFamilies) {
  for (const Graph& g :
       {gen::Clique(8), gen::Cycle(11), gen::Star(9), gen::Barbell(5, 2),
        gen::Grid(4, 5), gen::PaperFigure1()}) {
    for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
      const Community a = *GlobalCsm(g, v0);
      const Community b = GreedyGlobalCsm(g, v0);
      EXPECT_EQ(a.min_degree, b.min_degree) << "v0=" << v0;
      EXPECT_EQ(ToSet(a.members), ToSet(b.members)) << "v0=" << v0;
      EXPECT_TRUE(IsValidCommunity(g, a.members, v0, a.min_degree));
    }
  }
}

class GlobalRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GlobalRandomTest, CsmMatchesBruteForce) {
  Graph g = gen::ErdosRenyiGnp(12, 0.3, GetParam());
  for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
    const Community best = *GlobalCsm(g, v0);
    EXPECT_EQ(best.min_degree, BruteForceCsmGoodness(g, v0)) << "v0=" << v0;
    EXPECT_TRUE(IsValidCommunity(g, best.members, v0, best.min_degree));
  }
}

TEST_P(GlobalRandomTest, CstConsistentWithCsm) {
  Graph g = gen::ErdosRenyiGnp(30, 0.2, GetParam() + 7);
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 3) {
    const Community best = *GlobalCsm(g, v0);
    // CST(k) solvable exactly for k <= m*(G, v0) (Propositions 1 and 2).
    for (uint32_t k = 0; k <= best.min_degree + 2; ++k) {
      const auto cst = GlobalCst(g, v0, k);
      if (k <= best.min_degree) {
        ASSERT_TRUE(cst.has_value()) << "k=" << k << " v0=" << v0;
        EXPECT_TRUE(IsValidCommunity(g, cst->members, v0, k));
      } else {
        EXPECT_FALSE(cst.has_value()) << "k=" << k << " v0=" << v0;
      }
    }
  }
}

TEST_P(GlobalRandomTest, GreedyAgreesWithDecompositionOnLfr) {
  gen::LfrParams params;
  params.n = 300;
  params.seed = GetParam();
  params.min_community = 10;
  params.max_community = 60;
  params.min_degree = 3;
  params.max_degree = 20;
  const gen::LfrGraph lfr = gen::Lfr(params);
  for (VertexId v0 = 0; v0 < lfr.graph.NumVertices(); v0 += 37) {
    const Community a = *GlobalCsm(lfr.graph, v0);
    const Community b = GreedyGlobalCsm(lfr.graph, v0);
    EXPECT_EQ(a.min_degree, b.min_degree);
    EXPECT_EQ(ToSet(a.members), ToSet(b.members));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace locs
