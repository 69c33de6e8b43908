// Tests for the multi-vertex community search extension (core/multi.h):
// global and local solvers cross-validated against brute force and each
// other, single-vertex queries cross-validated against the paper solvers.

#include "core/multi.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/global.h"
#include "core/local_cst.h"
#include "core/searcher.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "test_util.h"
#include "util/rng.h"

namespace locs {
namespace {

using testing::ToSet;

/// Brute force: largest δ over connected subsets containing every query.
uint32_t BruteForceMultiGoodness(const Graph& graph,
                                 const std::vector<VertexId>& query) {
  const VertexId n = graph.NumVertices();
  uint32_t best = 0;
  bool found = false;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    bool has_all = true;
    for (VertexId q : query) has_all &= (mask >> q) & 1;
    if (!has_all) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if ((mask >> v) & 1) members.push_back(v);
    }
    if (!IsConnectedSubset(graph, members)) continue;
    found = true;
    best = std::max(best, MinDegreeOfInduced(graph, members));
  }
  return found ? best : 0;
}

bool ContainsAll(const std::vector<VertexId>& members,
                 const std::vector<VertexId>& query) {
  const auto set = ToSet(members);
  for (VertexId q : query) {
    if (set.count(q) == 0) return false;
  }
  return true;
}

class MultiSolverTest : public ::testing::Test {
 protected:
  SearchResult LocalCst(const Graph& g,
                        const std::vector<VertexId>& query, uint32_t k) {
    const GraphFacts facts = GraphFacts::Compute(g);
    const OrderedAdjacency ordered(g);
    LocalCstSolver solver(g, &ordered, &facts);
    return solver.CstMulti(query, k);
  }

  Community LocalCsm(const Graph& g, const std::vector<VertexId>& query) {
    const GraphFacts facts = GraphFacts::Compute(g);
    const OrderedAdjacency ordered(g);
    LocalCstSolver solver(g, &ordered, &facts);
    return *solver.CsmMulti(query);
  }
};

TEST_F(MultiSolverTest, SingleVertexMatchesPaperSolvers) {
  Graph g = gen::PaperFigure1();
  for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
    EXPECT_EQ(LocalCsm(g, {v0}).min_degree, GlobalCsm(g, v0)->min_degree)
        << "v0=" << v0;
    for (uint32_t k = 1; k <= 4; ++k) {
      EXPECT_EQ(LocalCst(g, {v0}, k).has_value(),
                GlobalCst(g, v0, k).has_value())
          << "v0=" << v0 << " k=" << k;
    }
  }
}

TEST_F(MultiSolverTest, PaperFigure1CrossCommunityPair) {
  // Query {a, j}: a's community (δ=3) and j's (δ=4) connect only through
  // the weak f-link, so the best community spanning both is the δ=2 body.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const std::vector<VertexId> query = {v('a'), v('j')};
  const Community best = LocalCsm(g, query);
  EXPECT_EQ(best.min_degree, 2u);
  EXPECT_TRUE(ContainsAll(best.members, query));
  EXPECT_TRUE(IsConnectedSubset(g, best.members));
  // CST(3) spanning both must fail; CST(2) succeeds.
  EXPECT_FALSE(LocalCst(g, query, 3).has_value());
  EXPECT_FALSE(GlobalCstMulti(g, query, 3).has_value());
  const auto cst2 = LocalCst(g, query, 2);
  ASSERT_TRUE(cst2.has_value());
  EXPECT_TRUE(ContainsAll(cst2->members, query));
  EXPECT_GE(MinDegreeOfInduced(g, cst2->members), 2u);
}

TEST_F(MultiSolverTest, SameCliquePair) {
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const std::vector<VertexId> query = {v('g'), v('k')};
  const Community best = LocalCsm(g, query);
  EXPECT_EQ(best.min_degree, 4u);
  EXPECT_TRUE(ContainsAll(best.members, query));
}

TEST_F(MultiSolverTest, DisconnectedQueriesHaveNoCommunity) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  Graph g = builder.Build();
  EXPECT_FALSE(LocalCst(g, {0, 5}, 0).has_value());
  EXPECT_FALSE(GlobalCstMulti(g, {0, 5}, 0).has_value());
  const Community best = LocalCsm(g, {0, 5});
  EXPECT_EQ(best.min_degree, 0u);  // degenerate singleton fallback
}

TEST_F(MultiSolverTest, GlobalMatchesBruteForceOnTinyGraphs) {
  for (uint64_t seed : {4u, 14u, 24u}) {
    Graph g = gen::ErdosRenyiGnp(10, 0.35, seed);
    const std::vector<std::vector<VertexId>> query_sets = {
        {0, 1}, {2, 7}, {0, 4, 9}, {1, 3, 5, 8}};
    for (const auto& query : query_sets) {
      const uint32_t expect = BruteForceMultiGoodness(g, query);
      const Community global = *GlobalCsmMulti(g, query);
      const Community local = LocalCsm(g, query);
      if (expect == 0) {
        // Queries may be disconnected; both must degrade to 0.
        EXPECT_EQ(global.min_degree, 0u);
        EXPECT_EQ(local.min_degree, 0u);
        continue;
      }
      EXPECT_EQ(global.min_degree, expect) << "seed=" << seed;
      EXPECT_EQ(local.min_degree, expect) << "seed=" << seed;
      EXPECT_TRUE(ContainsAll(global.members, query));
      EXPECT_TRUE(ContainsAll(local.members, query));
      EXPECT_TRUE(IsConnectedSubset(g, global.members));
      EXPECT_TRUE(IsConnectedSubset(g, local.members));
    }
  }
}

TEST_F(MultiSolverTest, LocalAgreesWithGlobalOnRandomGraphs) {
  for (uint64_t seed : {31u, 41u, 51u}) {
    Graph g = gen::ErdosRenyiGnp(80, 0.09, seed);
    Rng rng(seed);
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<VertexId> query;
      const size_t count = 2 + rng.Below(3);
      while (query.size() < count) {
        const auto v =
            static_cast<VertexId>(rng.Below(g.NumVertices()));
        if (std::find(query.begin(), query.end(), v) == query.end()) {
          query.push_back(v);
        }
      }
      for (uint32_t k = 1; k <= 5; ++k) {
        const auto local = LocalCst(g, query, k);
        const auto global = GlobalCstMulti(g, query, k);
        ASSERT_EQ(local.has_value(), global.has_value())
            << "seed=" << seed << " trial=" << trial << " k=" << k;
        if (local.has_value()) {
          EXPECT_TRUE(ContainsAll(local->members, query));
          EXPECT_TRUE(IsConnectedSubset(g, local->members));
          EXPECT_GE(MinDegreeOfInduced(g, local->members), k);
        }
      }
    }
  }
}

TEST_F(MultiSolverTest, BarbellSpanningPairNeedsBridge) {
  // Queries in the two K6 heads of a barbell: any spanning community must
  // include the bridge, capping δ at 1 (bridge vertices have degree 2 but
  // the path interior gives δ=... the spanning subgraph's min degree is 1
  // only if a head vertex dangles; the best is 2 via whole graph minus
  // nothing... verify against brute-force-free reasoning: the whole graph
  // has δ = 2 (bridge interior), so m* = 2.
  Graph g = gen::Barbell(6, 3);
  const std::vector<VertexId> query = {0, static_cast<VertexId>(
                                              g.NumVertices() - 1)};
  const Community best = LocalCsm(g, query);
  EXPECT_EQ(best.min_degree, 2u);
  EXPECT_TRUE(ContainsAll(best.members, query));
  const Community global = *GlobalCsmMulti(g, query);
  EXPECT_EQ(global.min_degree, 2u);
}

TEST_F(MultiSolverTest, FacadeEndToEnd) {
  CommunitySearcher searcher(gen::Barbell(5, 2));
  const std::vector<VertexId> query = {0, 11};
  const Community best = *searcher.CsmMulti(query);
  EXPECT_EQ(best.min_degree, 2u);
  EXPECT_TRUE(searcher.CstMulti(query, 2).has_value());
  EXPECT_FALSE(searcher.CstMulti(query, 3).has_value());
  EXPECT_TRUE(searcher.CstMulti({0, 1}, 4).has_value());
}

}  // namespace
}  // namespace locs
