// Tests for the CommunitySearcher facade.

#include "core/searcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/global.h"
#include "core/kcore.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "graph/builder.h"
#include "test_util.h"
#include "util/rng.h"

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
    const Community global = *GlobalCsm(searcher.graph(), v0);
    EXPECT_EQ(local.min_degree, global.min_degree);
    for (uint32_t k = 1; k <= global.min_degree + 1; ++k) {
      EXPECT_EQ(searcher.Cst(v0, k).has_value(),
                GlobalCst(searcher.graph(), v0, k).has_value());
    }
  }
}

TEST(CommunitySearcherTest, StatsPlumbing) {
  CommunitySearcher searcher(gen::Clique(12));
  const SearchResult cst = searcher.Cst(0, 6);
  EXPECT_GT(cst.telemetry.TotalVisited(), 0u);
  EXPECT_EQ(cst.telemetry.answer_size, 7u);
  EXPECT_EQ(GlobalCst(searcher.graph(), 0, 6).telemetry.TotalVisited(), 12u);
  EXPECT_EQ(searcher.Csm(0).telemetry.answer_size, 12u);
  EXPECT_EQ(GlobalCsm(searcher.graph(), 0).telemetry.answer_size, 12u);
  // Vertex 0 lies outside the (empty) 12-core: the CoreIndex answers and
  // the result's telemetry reads all zeros.
  const SearchResult outside = searcher.Cst(0, 12);
  EXPECT_FALSE(outside.has_value());
  EXPECT_EQ(outside.telemetry.TotalVisited(), 0u);
  EXPECT_EQ(outside.telemetry.answer_size, 0u);
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
        const SearchResult listed = searcher.Csm(v, nullptr, limit);
        ASSERT_EQ(listed.status, full.status);
        EXPECT_EQ(listed->min_degree, full->min_degree);
        EXPECT_EQ(listed.AnswerSize(), n);
        EXPECT_EQ(listed.telemetry.answer_size, n);
        const size_t shown = std::min<uint64_t>(limit, n);
        EXPECT_EQ(listed->members,
                  std::vector<VertexId>(full->members.begin(),
                                        full->members.begin() + shown));
        EXPECT_EQ(listed.unlisted, n - shown);
        EXPECT_LE(listed.telemetry.TotalVisited(), limit);
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
    const SearchResult result = searcher.Csm(3, &guard, 1);
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    EXPECT_EQ(result.best_so_far.members, std::vector<VertexId>{3});
    EXPECT_EQ(result.best_so_far.min_degree, 0u);
    EXPECT_EQ(result.AnswerSize(), 1u);
    EXPECT_EQ(result.telemetry.TotalVisited(), 0u);
  }
  for (const uint64_t limit : {1u, 5u}) {
    // Budget 1: the query vertex's own scan trips it, whatever the limit.
    SCOPED_TRACE(limit);
    QueryGuard guard(limits);
    const SearchResult result = searcher.Csm(3, &guard, limit);
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    EXPECT_EQ(result.best_so_far.members, std::vector<VertexId>{3});
    EXPECT_EQ(result.best_so_far.min_degree, 0u);
    EXPECT_EQ(result.AnswerSize(), 1u);
  }
}

// A member limit cuts the MULTI listing short but not the answer, as for
// CSM: CstMulti and CsmMulti under limits 1 and 5 report the unlimited
// call's status, n and δ (read off the core forest) and list a prefix of
// its members. Seeds in different components of the k-core are an index
// negative that visits nothing.
TEST(CommunitySearcherTest, LimitedMultiListsThePrefixOfTheFullAnswer) {
  std::vector<testing::GraphCase> cases = testing::PropertyGraphs();
  cases.push_back({"paper_figure1", gen::PaperFigure1()});
  for (const uint64_t seed : {5u, 9u}) {
    gen::LfrParams params;
    params.n = 2000;
    params.seed = seed;
    cases.push_back({"lfr_n2000_s" + std::to_string(seed),
                     gen::Lfr(params).graph});
  }
  uint64_t negatives = 0;
  uint64_t cut = 0;
  for (const testing::GraphCase& c : cases) {
    CommunitySearcher searcher(c.graph);
    const CoreIndex index(c.graph);
    const std::span<const uint32_t> core = index.core_numbers().span();
    Rng rng(c.graph.NumVertices());
    for (uint32_t k = 1; k <= index.Degeneracy(); ++k) {
      std::vector<VertexId> pool;
      for (VertexId v = 0; v < c.graph.NumVertices(); ++v) {
        if (core[v] >= k) pool.push_back(v);
      }
      if (pool.size() < 3) continue;
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<VertexId> seeds;
        while (seeds.size() < 2 + static_cast<size_t>(trial % 2)) {
          const VertexId v = pool[rng.Below(pool.size())];
          if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
            seeds.push_back(v);
          }
        }
        SCOPED_TRACE(c.label + " k=" + std::to_string(k) +
                     " seeds=" + std::to_string(seeds[0]) + "," +
                     std::to_string(seeds[1]));
        const SearchResult cst = searcher.CstMulti(seeds, k);
        const std::vector<VertexId> component =
            KCoreComponentOf(c.graph, core, seeds[0], k);
        const bool shared = std::all_of(
            seeds.begin(), seeds.end(), [&](VertexId v) {
              return std::find(component.begin(), component.end(), v) !=
                     component.end();
            });
        if (!shared) {
          ++negatives;
          EXPECT_EQ(cst.status, Termination::kNotExists);
          EXPECT_EQ(cst.telemetry.TotalVisited(), 0u);
          EXPECT_EQ(cst.telemetry.TotalScanned(), 0u);
        } else {
          ASSERT_TRUE(cst.Found());
          EXPECT_EQ(cst.unlisted, 0u);
          EXPECT_EQ(cst->members.size(), component.size());
        }
        const SearchResult csm = searcher.CsmMulti(seeds);
        ASSERT_TRUE(csm.Found());
        EXPECT_EQ(csm.unlisted, 0u);
        for (const uint64_t limit : {uint64_t{1}, uint64_t{5}}) {
          SCOPED_TRACE("limit=" + std::to_string(limit));
          const auto expect_prefix = [&](const SearchResult& full,
                                         const SearchResult& listed) {
            ASSERT_EQ(listed.status, full.status);
            EXPECT_EQ(listed.AnswerSize(), full.AnswerSize());
            EXPECT_LE(listed.telemetry.TotalVisited(), limit);
            if (!listed.Found()) return;
            EXPECT_EQ(listed->min_degree, full->min_degree);
            const size_t shown =
                std::min<uint64_t>(limit, full->members.size());
            EXPECT_EQ(listed->members,
                      std::vector<VertexId>(full->members.begin(),
                                            full->members.begin() + shown));
            cut += listed.unlisted > 0 ? 1 : 0;
          };
          expect_prefix(cst, searcher.CstMulti(seeds, k, nullptr, limit));
          expect_prefix(csm, searcher.CsmMulti(seeds, nullptr, limit));
        }
      }
    }
  }
  // Both the negative and the cut listing must actually be exercised.
  EXPECT_GT(negatives, 0u);
  EXPECT_GT(cut, 0u);
}

}  // namespace
}  // namespace locs
