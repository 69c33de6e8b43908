// Tests for local CSM (Algorithm 4): CSM2 and CSM1(γ→−∞) must be exact
// everywhere; finite γ trades quality for speed but never reports an
// invalid community.

#include "core/local_csm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "core/global.h"
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

constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

// gtest prints a parameter without a printer as its raw bytes, and
// gtest_discover_tests copies that text into the ctest test names. The
// four bytes after `rule` are a zeroed member, not padding, so the names
// carry no stale heap bytes and are the same on every build.
struct Config {
  Config(CsmCandidateRule r, double g) : rule(r), gamma(g) {}

  CsmCandidateRule rule;
  std::int32_t zero = 0;
  double gamma;
};
static_assert(sizeof(Config) == 16, "no padding may reach the test names");

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  std::string name = info.param.rule == CsmCandidateRule::kFromVisited
                         ? "CSM1"
                         : "CSM2";
  if (std::isinf(info.param.gamma)) {
    name += "_gammaNegInf";
  } else {
    name += "_gamma" + std::to_string(static_cast<int>(info.param.gamma));
  }
  return name;
}

class LocalCsmExactTest : public ::testing::TestWithParam<Config> {
 protected:
  Community Solve(const Graph& g, VertexId v0, bool ordered = true) {
    const GraphFacts facts = GraphFacts::Compute(g);
    std::optional<OrderedAdjacency> oa;
    if (ordered) oa.emplace(g);
    LocalCsmSolver solver(g, oa ? &*oa : nullptr, &facts);
    CsmOptions options;
    options.candidate_rule = GetParam().rule;
    options.gamma = GetParam().gamma;
    return *solver.Solve(v0, options);
  }
};

TEST_P(LocalCsmExactTest, Clique) {
  Graph g = gen::Clique(8);
  const Community best = Solve(g, 2);
  EXPECT_EQ(best.min_degree, 7u);
  EXPECT_EQ(best.members.size(), 8u);
}

TEST_P(LocalCsmExactTest, IsolatedVertex) {
  Graph g = BuildGraph(4, {{0, 1}});
  const Community best = Solve(g, 3);
  EXPECT_EQ(best.min_degree, 0u);
  EXPECT_EQ(best.members, std::vector<VertexId>{3});
}

TEST_P(LocalCsmExactTest, SingleEdge) {
  Graph g = BuildGraph(2, {{0, 1}});
  const Community best = Solve(g, 0);
  EXPECT_EQ(best.min_degree, 1u);
  EXPECT_EQ(ToSet(best.members), ToSet({0, 1}));
}

TEST_P(LocalCsmExactTest, PaperFigure1AllQueries) {
  // Expected m*(G, v) per vertex of the Figure 1 graph: the core numbers.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const std::map<char, uint32_t> expected = {
      {'a', 3}, {'b', 3}, {'c', 3}, {'d', 3}, {'e', 3}, {'f', 2},
      {'g', 4}, {'h', 4}, {'i', 4}, {'j', 4}, {'k', 4}, {'l', 4},
      {'m', 1}, {'n', 1}};
  for (const auto& [label, m_star] : expected) {
    const Community best = Solve(g, v(label));
    EXPECT_EQ(best.min_degree, m_star) << label;
    EXPECT_TRUE(
        IsValidCommunity(g, best.members, v(label), best.min_degree));
  }
  // Example 4 / 6: the best community for a and e is V1.
  for (char c : {'a', 'e'}) {
    const Community best = Solve(g, v(c));
    EXPECT_EQ(ToSet(best.members),
              ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  }
}

TEST_P(LocalCsmExactTest, MatchesBruteForceOnTinyGraphs) {
  for (uint64_t seed : {3u, 7u, 19u, 57u}) {
    Graph g = gen::ErdosRenyiGnp(12, 0.3, seed);
    for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
      const Community best = Solve(g, v0);
      EXPECT_EQ(best.min_degree, BruteForceCsmGoodness(g, v0))
          << "seed=" << seed << " v0=" << v0;
      EXPECT_TRUE(IsValidCommunity(g, best.members, v0, best.min_degree));
    }
  }
}

TEST_P(LocalCsmExactTest, MatchesGlobalOnRandomGraphs) {
  for (uint64_t seed : {101u, 202u}) {
    Graph g = gen::ErdosRenyiGnp(150, 0.06, seed);
    for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 7) {
      const Community local = Solve(g, v0);
      const Community global = *GlobalCsm(g, v0);
      EXPECT_EQ(local.min_degree, global.min_degree)
          << "seed=" << seed << " v0=" << v0;
    }
  }
}

TEST_P(LocalCsmExactTest, MatchesGlobalOnLfr) {
  gen::LfrParams params;
  params.n = 500;
  params.min_degree = 4;
  params.max_degree = 25;
  params.min_community = 15;
  params.max_community = 60;
  params.seed = 31;
  const gen::LfrGraph lfr = gen::Lfr(params);
  for (VertexId v0 = 0; v0 < lfr.graph.NumVertices(); v0 += 23) {
    const Community local = Solve(lfr.graph, v0);
    const Community global = *GlobalCsm(lfr.graph, v0);
    EXPECT_EQ(local.min_degree, global.min_degree) << "v0=" << v0;
  }
}

TEST_P(LocalCsmExactTest, WorksWithoutOrderedAdjacency) {
  Graph g = gen::ErdosRenyiGnp(60, 0.12, 77);
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 11) {
    const Community with = Solve(g, v0, /*ordered=*/true);
    const Community without = Solve(g, v0, /*ordered=*/false);
    EXPECT_EQ(with.min_degree, without.min_degree);
  }
}

TEST_P(LocalCsmExactTest, RepeatedQueriesAreIndependent) {
  Graph g = gen::ErdosRenyiGnp(90, 0.08, 13);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  CsmOptions options;
  options.candidate_rule = GetParam().rule;
  options.gamma = GetParam().gamma;
  std::vector<uint32_t> first;
  for (VertexId v0 = 0; v0 < 30; ++v0) {
    first.push_back(solver.Solve(v0, options)->min_degree);
  }
  for (int round = 0; round < 3; ++round) {
    for (VertexId v0 = 0; v0 < 30; ++v0) {
      EXPECT_EQ(solver.Solve(v0, options)->min_degree, first[v0]);
    }
  }
}

// Exact configurations: CSM2 at any γ, CSM1 at γ → −∞ (Theorems 6, 7).
INSTANTIATE_TEST_SUITE_P(
    ExactConfigs, LocalCsmExactTest,
    ::testing::Values(Config{CsmCandidateRule::kFromNaive, 0.0},
                      Config{CsmCandidateRule::kFromNaive, 8.0},
                      Config{CsmCandidateRule::kFromNaive, kMinusInf},
                      Config{CsmCandidateRule::kFromVisited, kMinusInf}),
    ConfigName);

TEST(LocalCsmGammaTest, FiniteGammaNeverBeatsOptimum) {
  Graph g = gen::ErdosRenyiGnp(120, 0.08, 999);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 9) {
    const Community global = *GlobalCsm(g, v0);
    for (double gamma : {0.0, 2.0, 6.0, 15.0}) {
      CsmOptions options;
      options.candidate_rule = CsmCandidateRule::kFromVisited;
      options.gamma = gamma;
      const Community local = *solver.Solve(v0, options);
      EXPECT_LE(local.min_degree, global.min_degree);
      EXPECT_TRUE(IsValidCommunity(g, local.members, v0, local.min_degree));
    }
  }
}

TEST(LocalCsmGammaTest, QualityIsMonotoneInBudgetOnAverage) {
  // Aggregate quality ratio r_a must not improve when γ grows (Figure 14's
  // downward trend). Compare the two extremes.
  Graph g = gen::ErdosRenyiGnp(300, 0.04, 4242);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  double sum_exact = 0.0;
  double sum_tight = 0.0;
  double sum_opt = 0.0;
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 13) {
    CsmOptions options;
    options.candidate_rule = CsmCandidateRule::kFromVisited;
    options.gamma = kMinusInf;
    sum_exact += solver.Solve(v0, options)->min_degree;
    options.gamma = 15.0;
    sum_tight += solver.Solve(v0, options)->min_degree;
    sum_opt += GlobalCsm(g, v0)->min_degree;
  }
  EXPECT_DOUBLE_EQ(sum_exact, sum_opt);  // Theorem 6
  EXPECT_LE(sum_tight, sum_exact + 1e-9);
}

TEST(LocalCsmStatsTest, Eq7EarlyExitSkipsMaxcore) {
  // In a clique, δ(G[H]) reaches deg(v0) during expansion, so the search
  // must return without the maxcore phase.
  Graph g = gen::Clique(12);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  const SearchResult result = solver.Solve(0);
  EXPECT_EQ(result->min_degree, 11u);
  EXPECT_FALSE(result.telemetry.used_global_fallback);
}

TEST(LocalCsmStatsTest, VisitedStaysLocalOnBarbell) {
  // Query inside one K8 of a long-bridged barbell: the search must not
  // wander into the far clique once δ(H) = 7 is proven optimal via Eq. 7.
  Graph g = gen::Barbell(8, 30);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  const SearchResult result = solver.Solve(0);
  EXPECT_EQ(result->min_degree, 7u);
  EXPECT_EQ(result->members.size(), 8u);
  EXPECT_LT(result.telemetry.TotalVisited(), 12u);
}

}  // namespace
}  // namespace locs
