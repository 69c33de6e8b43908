// Tests for the CommunitySearcher facade.

#include "core/searcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::ToSet;

TEST(CommunitySearcherTest, FacadeBasics) {
  CommunitySearcher searcher(gen::PaperFigure1());
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  EXPECT_TRUE(searcher.facts().connected);
  EXPECT_EQ(searcher.facts().num_vertices, 14u);
  EXPECT_EQ(searcher.facts().num_edges, 26u);

  const auto cst = searcher.Cst(v('a'), 3);
  ASSERT_TRUE(cst.has_value());
  EXPECT_EQ(ToSet(cst->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));

  const Community csm = *searcher.Csm(v('j'));
  EXPECT_EQ(csm.min_degree, 4u);
}

TEST(CommunitySearcherTest, LocalAgreesWithGlobalEndToEnd) {
  CommunitySearcher searcher(gen::ErdosRenyiGnp(100, 0.08, 8));
  for (VertexId v0 = 0; v0 < 100; v0 += 9) {
    const Community local = *searcher.Csm(v0);
    const Community global = *searcher.CsmGlobal(v0);
    EXPECT_EQ(local.min_degree, global.min_degree);
    for (uint32_t k = 1; k <= global.min_degree + 1; ++k) {
      EXPECT_EQ(searcher.Cst(v0, k).has_value(),
                searcher.CstGlobal(v0, k).has_value());
    }
  }
}

TEST(CommunitySearcherTest, DegreeTailFraction) {
  CommunitySearcher searcher(gen::Star(10));  // center deg 9, leaves deg 1
  EXPECT_DOUBLE_EQ(searcher.DegreeTailFraction(0), 1.0);
  EXPECT_DOUBLE_EQ(searcher.DegreeTailFraction(1), 1.0);
  EXPECT_DOUBLE_EQ(searcher.DegreeTailFraction(2), 0.1);
  EXPECT_DOUBLE_EQ(searcher.DegreeTailFraction(9), 0.1);
  EXPECT_DOUBLE_EQ(searcher.DegreeTailFraction(10), 0.0);
  EXPECT_DOUBLE_EQ(searcher.DegreeTailFraction(1000), 0.0);
}

TEST(CommunitySearcherTest, AdaptiveAlwaysExact) {
  CommunitySearcher searcher(gen::ErdosRenyiGnp(120, 0.07, 21));
  for (VertexId v0 = 0; v0 < 120; v0 += 7) {
    for (uint32_t k = 0; k <= 10; ++k) {
      const auto adaptive = searcher.CstAdaptive(v0, k);
      const auto global = searcher.CstGlobal(v0, k);
      ASSERT_EQ(adaptive.has_value(), global.has_value())
          << "v0=" << v0 << " k=" << k;
      if (adaptive.has_value()) {
        EXPECT_TRUE(IsValidCommunity(searcher.graph(), adaptive->members,
                                     v0, k));
      }
    }
  }
}

TEST(CommunitySearcherTest, AdaptiveDispatchBoundary) {
  // CstAdaptive goes global when |V>=k| / |V| exceeds 0.35 (for k > 2).
  // A clique with a long tail keeps the fraction at k=3 below it (8/28):
  // local search, which stops before visiting the whole clique.
  GraphBuilder lollipop(28);
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) lollipop.AddEdge(u, v);
  }
  for (VertexId v = 8; v < 28; ++v) lollipop.AddEdge(v - 1, v);
  CommunitySearcher a(lollipop.Build());
  EXPECT_LT(a.DegreeTailFraction(3), 0.35);
  QueryStats stats;
  a.CstAdaptive(0, 3, {}, &stats);
  EXPECT_LT(stats.visited_vertices, 8u);  // local path (stops early)

  // A bare clique keeps every vertex (fraction 1): the global peel.
  CommunitySearcher b(gen::Clique(8));
  EXPECT_GT(b.DegreeTailFraction(3), 0.35);
  b.CstAdaptive(0, 3, {}, &stats);
  EXPECT_EQ(stats.visited_vertices, 8u);  // global path (whole graph)
}

TEST(CommunitySearcherTest, StatsPlumbing) {
  CommunitySearcher searcher(gen::Clique(12));
  QueryStats stats;
  searcher.Cst(0, 6, {}, &stats);
  EXPECT_GT(stats.visited_vertices, 0u);
  EXPECT_EQ(stats.answer_size, 7u);
  searcher.CstGlobal(0, 6, &stats);
  EXPECT_EQ(stats.visited_vertices, 12u);
  searcher.Csm(0, &stats);
  EXPECT_EQ(stats.answer_size, 12u);
  searcher.CsmGlobal(0, &stats);
  EXPECT_EQ(stats.answer_size, 12u);
  // Vertex 0 lies outside the (empty) 12-core: the CoreIndex answers and
  // the caller's stats read all zeros.
  EXPECT_FALSE(searcher.Cst(0, 12, {}, &stats).has_value());
  EXPECT_EQ(stats.visited_vertices, 0u);
  EXPECT_EQ(stats.answer_size, 0u);
}

// A member limit cuts the CSM BFS short but not the answer: status, δ
// and n are those of the unlimited query, and the listed members are its
// first ones. The BFS pops at most `limit` vertices.
TEST(CommunitySearcherTest, LimitedCsmListsThePrefixOfTheFullAnswer) {
  std::vector<testing::GraphCase> cases = testing::PropertyGraphs();
  GraphBuilder two_components(9);  // a K4, a triangle, two isolated
  for (VertexId a = 0; a < 4; ++a) {
    for (VertexId b = a + 1; b < 4; ++b) two_components.AddEdge(a, b);
  }
  two_components.AddEdge(4, 5);
  two_components.AddEdge(5, 6);
  two_components.AddEdge(4, 6);
  cases.push_back({"two_components", two_components.Build()});
  for (const testing::GraphCase& c : cases) {
    CommunitySearcher searcher(c.graph);
    for (VertexId v = 0; v < c.graph.NumVertices(); ++v) {
      const SearchResult full = searcher.Csm(v);
      ASSERT_TRUE(full.has_value());
      EXPECT_EQ(full.unlisted, 0u);
      const uint64_t n = full->members.size();
      for (const uint64_t limit :
           {uint64_t{1}, uint64_t{2}, n - 1, n, n + 1}) {
        if (limit == 0) continue;
        SCOPED_TRACE(c.label + " v=" + std::to_string(v) +
                     " limit=" + std::to_string(limit));
        QueryStats stats;
        const SearchResult listed = searcher.Csm(v, &stats, nullptr, limit);
        ASSERT_EQ(listed.status, full.status);
        EXPECT_EQ(listed->min_degree, full->min_degree);
        EXPECT_EQ(listed.AnswerSize(), n);
        EXPECT_EQ(stats.answer_size, n);
        const size_t shown = std::min<uint64_t>(limit, n);
        EXPECT_EQ(listed->members,
                  std::vector<VertexId>(full->members.begin(),
                                        full->members.begin() + shown));
        EXPECT_EQ(listed.unlisted, n - shown);
        EXPECT_LE(stats.visited_vertices, limit);
      }
    }
  }
}

TEST(CommunitySearcherTest, LimitedCsmDegradesToTheQueryVertex) {
  CommunitySearcher searcher(gen::Clique(12));
  QueryLimits limits;
  limits.work_budget = 1;
  {
    // Pre-tripped: no BFS runs.
    QueryGuard guard(limits);
    guard.Spend(2);
    ASSERT_TRUE(guard.Stopped());
    QueryStats stats;
    const SearchResult result = searcher.Csm(3, &stats, &guard, 1);
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    EXPECT_EQ(result.best_so_far.members, std::vector<VertexId>{3});
    EXPECT_EQ(result.best_so_far.min_degree, 0u);
    EXPECT_EQ(result.AnswerSize(), 1u);
    EXPECT_EQ(stats.visited_vertices, 0u);
  }
  for (const uint64_t limit : {1u, 5u}) {
    // Budget 1: the query vertex's own scan trips it, whatever the limit.
    SCOPED_TRACE(limit);
    QueryGuard guard(limits);
    const SearchResult result = searcher.Csm(3, nullptr, &guard, limit);
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    EXPECT_EQ(result.best_so_far.members, std::vector<VertexId>{3});
    EXPECT_EQ(result.best_so_far.min_degree, 0u);
    EXPECT_EQ(result.AnswerSize(), 1u);
  }
}

}  // namespace
}  // namespace locs
