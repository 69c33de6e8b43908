// Cross-solver equivalence matrix: every CST/CSM implementation in the
// library must agree with every other on feasibility and optimality,
// across a grid of generators, thresholds, and strategies. This is the
// integration suite that ties the whole stack together.

#include <gtest/gtest.h>

#include <limits>
#include <span>

#include "core/bounds.h"
#include "core/core_index.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/multi.h"
#include "gen/barabasi.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/planted.h"
#include "gen/powerlaw.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

/// The graph family grid. 64 bits wide so GridParam has no padding:
/// gtest prints the parameter's raw bytes into each test's listed name,
/// and uninitialised padding made those names change from run to run.
enum class Family : uint64_t { kGnp, kBarabasi, kPowerLaw, kLfr, kPlanted };

std::string FamilyName(Family family) {
  switch (family) {
    case Family::kGnp:
      return "gnp";
    case Family::kBarabasi:
      return "ba";
    case Family::kPowerLaw:
      return "powerlaw";
    case Family::kLfr:
      return "lfr";
    case Family::kPlanted:
      return "planted";
  }
  return "?";
}

Graph MakeGraph(Family family, uint64_t seed) {
  switch (family) {
    case Family::kGnp:
      return gen::ErdosRenyiGnp(90, 0.08, seed);
    case Family::kBarabasi:
      return gen::BarabasiAlbert(120, 3, seed);
    case Family::kPowerLaw:
      return gen::PowerLawGraph(150, 2.2, 2, 25, seed);
    case Family::kLfr: {
      gen::LfrParams params;
      params.n = 200;
      params.min_degree = 3;
      params.max_degree = 18;
      params.min_community = 10;
      params.max_community = 40;
      params.seed = seed;
      return gen::Lfr(params).graph;
    }
    case Family::kPlanted:
      return gen::PlantedPartition(5, 20, 0.45, 0.02, seed).graph;
  }
  return Graph();
}

struct GridParam {
  Family family;
  uint64_t seed;
};

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  return FamilyName(info.param.family) + "_s" +
         std::to_string(info.param.seed);
}

class CrossSolverTest : public ::testing::TestWithParam<GridParam> {
 protected:
  void SetUp() override {
    graph_ = MakeGraph(GetParam().family, GetParam().seed);
    facts_ = GraphFacts::Compute(graph_);
    ordered_.emplace(graph_);
    index_.emplace(graph_);
  }

  Graph graph_;
  GraphFacts facts_;
  std::optional<OrderedAdjacency> ordered_;
  std::optional<CoreIndex> index_;
};

TEST_P(CrossSolverTest, CstFeasibilityMatrixAgrees) {
  LocalCstSolver solver(graph_, &*ordered_, &facts_);
  for (VertexId v0 = 0; v0 < graph_.NumVertices(); v0 += 11) {
    const uint32_t m_star = index_->CoreNumber(v0);
    for (uint32_t k = 0; k <= m_star + 2; ++k) {
      const bool expect = k <= m_star;
      EXPECT_EQ(GlobalCst(graph_, v0, k).has_value(), expect)
          << "global v0=" << v0 << " k=" << k;
      EXPECT_EQ(index_->HasCst(v0, k), expect);
      for (Strategy strategy :
           {Strategy::kNaive, Strategy::kLG, Strategy::kLI}) {
        CstOptions options;
        options.strategy = strategy;
        const auto local = solver.Solve(v0, k, options);
        ASSERT_EQ(local.has_value(), expect)
            << StrategyName(strategy) << " v0=" << v0 << " k=" << k;
        if (local.has_value()) {
          EXPECT_TRUE(IsValidCommunity(graph_, local->members, v0, k));
        }
      }
      EXPECT_EQ(solver.CstMulti({v0}, k).has_value(), expect);
    }
  }
}

TEST_P(CrossSolverTest, CsmOptimaAgreeEverywhere) {
  LocalCsmSolver solver(graph_, &*ordered_, &facts_);
  LocalCstSolver multi(graph_, &*ordered_, &facts_);
  constexpr double kMinusInf = -std::numeric_limits<double>::infinity();
  for (VertexId v0 = 0; v0 < graph_.NumVertices(); v0 += 13) {
    const uint32_t expect = index_->CoreNumber(v0);
    EXPECT_EQ(GlobalCsm(graph_, v0)->min_degree, expect) << "v0=" << v0;
    EXPECT_EQ(GreedyGlobalCsm(graph_, v0).min_degree, expect);
    CsmOptions csm2;
    csm2.candidate_rule = CsmCandidateRule::kFromNaive;
    csm2.gamma = 5.0;
    EXPECT_EQ(solver.Solve(v0, csm2)->min_degree, expect) << "v0=" << v0;
    CsmOptions csm1;
    csm1.candidate_rule = CsmCandidateRule::kFromVisited;
    csm1.gamma = kMinusInf;
    EXPECT_EQ(solver.Solve(v0, csm1)->min_degree, expect) << "v0=" << v0;
    EXPECT_EQ(multi.CsmMulti({v0})->min_degree, expect) << "v0=" << v0;
  }
}

TEST_P(CrossSolverTest, MaximalAnswersContainLocalAnswers) {
  // Lemmas 3 and 4: the maximal CST(k) answer is v0's component of the
  // k-core, and the CSM answer is that component at k = core(v0), both
  // read off the index's core numbers. Every local CST(k) answer is a
  // subset of it.
  LocalCstSolver solver(graph_, &*ordered_, &facts_);
  const std::span<const uint32_t> core = index_->core_numbers().span();
  for (VertexId v0 = 0; v0 < graph_.NumVertices(); ++v0) {
    const uint32_t m_star = index_->CoreNumber(v0);
    const Community csm = *GlobalCsm(graph_, v0);
    ASSERT_EQ(csm.min_degree, m_star) << "v0=" << v0;
    ASSERT_EQ(testing::ToSet(KCoreComponentOf(graph_, core, v0, m_star)),
              testing::ToSet(csm.members))
        << "v0=" << v0;
    for (uint32_t k = 0; k <= m_star + 1; ++k) {
      const auto maximal =
          testing::ToSet(KCoreComponentOf(graph_, core, v0, k));
      const auto global = GlobalCst(graph_, v0, k);
      ASSERT_EQ(!maximal.empty(), global.has_value())
          << "v0=" << v0 << " k=" << k;
      if (!global.has_value()) continue;
      ASSERT_EQ(maximal, testing::ToSet(global->members))
          << "v0=" << v0 << " k=" << k;
      const auto local = solver.Solve(v0, k);
      ASSERT_TRUE(local.has_value()) << "v0=" << v0 << " k=" << k;
      for (VertexId member : local->members) {
        EXPECT_TRUE(maximal.count(member) > 0)
            << "member " << member << " outside the k-core component";
      }
    }
  }
}

TEST_P(CrossSolverTest, Theorem3BoundHolds) {
  // On connected graphs the bound caps every optimum.
  if (!facts_.connected) GTEST_SKIP() << "bound requires connectivity";
  const uint32_t bound =
      MStarUpperBound(facts_.num_edges, facts_.num_vertices);
  for (VertexId v0 = 0; v0 < graph_.NumVertices(); ++v0) {
    EXPECT_LE(index_->CoreNumber(v0), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossSolverTest,
    ::testing::Values(GridParam{Family::kGnp, 1},
                      GridParam{Family::kGnp, 2},
                      GridParam{Family::kBarabasi, 1},
                      GridParam{Family::kBarabasi, 2},
                      GridParam{Family::kPowerLaw, 1},
                      GridParam{Family::kPowerLaw, 2},
                      GridParam{Family::kLfr, 1},
                      GridParam{Family::kLfr, 2},
                      GridParam{Family::kPlanted, 1},
                      GridParam{Family::kPlanted, 2}),
    GridName);

}  // namespace
}  // namespace locs
