// Adversarial graph structures for the local solvers: shapes engineered
// to stress tie-breaking, fallback paths, budget logic, and the epoch
// machinery — beyond what uniform random graphs exercise.

#include <gtest/gtest.h>

#include <limits>

#include "core/global.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "gen/classic.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::ToSet;

/// Ring of cliques: `count` K_size cliques, consecutive cliques joined by
/// a single edge. Dense pockets with weak links — the structure minimum
/// degree is designed for.
Graph RingOfCliques(VertexId count, VertexId size) {
  GraphBuilder builder(count * size);
  for (VertexId c = 0; c < count; ++c) {
    const VertexId base = c * size;
    for (VertexId i = 0; i < size; ++i) {
      for (VertexId j = i + 1; j < size; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
    const VertexId next = ((c + 1) % count) * size;
    builder.AddEdge(base + size - 1, next);
  }
  return builder.Build();
}

/// A "lollipop": K_size clique with a path of `tail` vertices hanging off.
Graph Lollipop(VertexId size, VertexId tail) {
  GraphBuilder builder(size + tail);
  for (VertexId i = 0; i < size; ++i) {
    for (VertexId j = i + 1; j < size; ++j) builder.AddEdge(i, j);
  }
  VertexId prev = size - 1;
  for (VertexId t = 0; t < tail; ++t) {
    builder.AddEdge(prev, size + t);
    prev = size + t;
  }
  return builder.Build();
}

/// Two K_k cliques sharing exactly `overlap` vertices.
Graph OverlappingCliques(VertexId k, VertexId overlap) {
  const VertexId n = 2 * k - overlap;
  GraphBuilder builder(n);
  for (VertexId i = 0; i < k; ++i) {
    for (VertexId j = i + 1; j < k; ++j) builder.AddEdge(i, j);
  }
  for (VertexId i = k - overlap; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) builder.AddEdge(i, j);
  }
  return builder.Build();
}

class AdversarialTest : public ::testing::TestWithParam<Strategy> {
 protected:
  SearchResult SolveCst(const Graph& g, VertexId v0, uint32_t k) {
    const GraphFacts facts = GraphFacts::Compute(g);
    const OrderedAdjacency ordered(g);
    LocalCstSolver solver(g, &ordered, &facts);
    CstOptions options;
    options.strategy = GetParam();
    return solver.Solve(v0, k, options);
  }
};

TEST_P(AdversarialTest, RingOfCliquesStaysLocal) {
  const VertexId size = 6;
  Graph g = RingOfCliques(10, size);
  for (VertexId c = 0; c < 10; ++c) {
    const VertexId v0 = c * size + 2;  // interior clique vertex
    const auto result = SolveCst(g, v0, size - 1);
    ASSERT_TRUE(result.has_value()) << "clique " << c;
    EXPECT_TRUE(IsValidCommunity(g, result->members, v0, size - 1));
    if (GetParam() != Strategy::kLG) {
      // naive and li stop at exactly the query vertex's own clique. lg can
      // legitimately cascade through the bridge endpoints (the selection
      // hardness of the paper's Example 8) and return the full ring.
      EXPECT_EQ(result->members.size(), size);
    }
  }
}

TEST_P(AdversarialTest, RingOfCliquesFullRingAtK2) {
  Graph g = RingOfCliques(6, 4);
  const auto result = SolveCst(g, 0, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, 0, 2));
}

TEST_P(AdversarialTest, LollipopTailQueries) {
  Graph g = Lollipop(8, 20);
  // Tail vertices have m* = 1: CST(2) must fail from the tail tip but the
  // clique answers for k up to 7 from inside.
  EXPECT_FALSE(SolveCst(g, g.NumVertices() - 1, 2).has_value());
  for (uint32_t k = 1; k <= 7; ++k) {
    const auto result = SolveCst(g, 0, k);
    ASSERT_TRUE(result.has_value()) << "k=" << k;
    EXPECT_TRUE(IsValidCommunity(g, result->members, 0, k));
  }
  EXPECT_FALSE(SolveCst(g, 0, 8).has_value());
}

TEST_P(AdversarialTest, LollipopJunctionVertex) {
  // The junction vertex (clique member holding the tail) has the highest
  // global degree yet the same m* as its clique — high degree must not
  // mislead the search.
  Graph g = Lollipop(8, 20);
  const VertexId junction = 7;
  EXPECT_EQ(GlobalCsm(g, junction)->min_degree, 7u);
  const auto result = SolveCst(g, junction, 7);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToSet(result->members), ToSet({0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_P(AdversarialTest, OverlappingCliquesSharedVertices) {
  Graph g = OverlappingCliques(8, 3);
  // Shared vertices have inflated degree; m* for every vertex is 7 (its
  // own K8), and CST(7) from a shared vertex can answer with either K8.
  for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
    const auto result = SolveCst(g, v0, 7);
    ASSERT_TRUE(result.has_value()) << "v0=" << v0;
    EXPECT_TRUE(IsValidCommunity(g, result->members, v0, 7));
  }
  EXPECT_FALSE(SolveCst(g, 5, 10).has_value());
}

TEST_P(AdversarialTest, DeepStarOfPaths) {
  // Hub with many long path arms: every CST(2) query must fail fast
  // (no cycle anywhere), exercising exhaustive candidate drain.
  GraphBuilder builder(1 + 10 * 20);
  for (VertexId arm = 0; arm < 10; ++arm) {
    VertexId prev = 0;
    for (VertexId i = 0; i < 20; ++i) {
      const VertexId v = 1 + arm * 20 + i;
      builder.AddEdge(prev, v);
      prev = v;
    }
  }
  Graph g = builder.Build();
  EXPECT_FALSE(SolveCst(g, 0, 2).has_value());
  EXPECT_FALSE(SolveCst(g, 15, 2).has_value());
}

TEST_P(AdversarialTest, CompleteBipartiteNoHighCore) {
  // K_{a,b}: m* = min(a, b) for every vertex; no triangle exists, so
  // small answers are impossible — answers must span both sides.
  Graph g = gen::CompleteBipartite(4, 9);
  for (VertexId v0 : {0u, 5u}) {
    const auto result = SolveCst(g, v0, 4);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(IsValidCommunity(g, result->members, v0, 4));
    EXPECT_FALSE(SolveCst(g, v0, 5).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, AdversarialTest,
                         ::testing::Values(Strategy::kNaive, Strategy::kLG,
                                           Strategy::kLI),
                         [](const auto& info) {
                           return std::string(StrategyName(info.param));
                         });

TEST(AdversarialCsmTest, RingOfCliquesAllRules) {
  Graph g = RingOfCliques(8, 5);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCsmSolver solver(g, &ordered, &facts);
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 3) {
    const uint32_t expect = GlobalCsm(g, v0)->min_degree;
    for (CsmCandidateRule rule :
         {CsmCandidateRule::kFromNaive, CsmCandidateRule::kFromVisited}) {
      CsmOptions options;
      options.candidate_rule = rule;
      options.gamma = -std::numeric_limits<double>::infinity();
      EXPECT_EQ(solver.Solve(v0, options)->min_degree, expect)
          << "v0=" << v0;
    }
  }
}

TEST(AdversarialCsmTest, LongPathBudgetTermination) {
  // On a pure path, δ(H) never exceeds 1; with γ = 0 the Corollary-1
  // budget must stop the expansion long before it crawls the whole path.
  Graph g = gen::Path(5000);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  CsmOptions options;
  options.gamma = 0.0;
  options.candidate_rule = CsmCandidateRule::kFromNaive;
  const Community best = *solver.Solve(2500, options);
  EXPECT_EQ(best.min_degree, 1u);
  EXPECT_TRUE(IsValidCommunity(g, best.members, 2500, 1));
}

TEST(AdversarialCsmTest, HubVertexInSparseGalaxy) {
  // A hub connected to many degree-1 satellites plus one triangle: the
  // best community for the hub is the triangle (m* = 2), not the star.
  GraphBuilder builder(50);
  for (VertexId v = 3; v < 50; ++v) builder.AddEdge(0, v);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  Graph g = builder.Build();
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  const Community best = *solver.Solve(0);
  EXPECT_EQ(best.min_degree, 2u);
  EXPECT_EQ(ToSet(best.members), ToSet({0, 1, 2}));
}

}  // namespace
}  // namespace locs
