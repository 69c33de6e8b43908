// Tests for the exponential Algorithm-1 baseline.

#include "core/baseline.h"

#include <gtest/gtest.h>

#include "core/global.h"
#include "core/validate.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

uint64_t Steps(const SearchResult& result) {
  return result.telemetry[obs::Phase::kExpansion].budget_spent;
}

TEST(BaselineTest, CliqueDirect) {
  Graph g = gen::Clique(6);
  const SearchResult result = BaselineCst(g, 0, 5);
  ASSERT_TRUE(result.Found());
  EXPECT_EQ(result->members.size(), 6u);
  EXPECT_EQ(result.telemetry.answer_size, 6u);
}

TEST(BaselineTest, ThresholdZeroImmediate) {
  Graph g = gen::Path(3);
  const SearchResult result = BaselineCst(g, 1, 0);
  ASSERT_TRUE(result.Found());
  EXPECT_EQ(result->members.size(), 1u);
  EXPECT_EQ(Steps(result), 1u);
}

TEST(BaselineTest, Proposition3ShortCircuit) {
  Graph g = gen::Star(10);
  const SearchResult result = BaselineCst(g, 1, 2);
  EXPECT_EQ(result.status, Termination::kNotExists);
  EXPECT_EQ(Steps(result), 0u);
}

TEST(BaselineTest, PaperFigure1Queries) {
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const SearchResult a3 = BaselineCst(g, v('a'), 3);
  ASSERT_TRUE(a3.has_value());
  EXPECT_TRUE(IsValidCommunity(g, a3->members, v('a'), 3));
  const SearchResult g4 = BaselineCst(g, v('g'), 4);
  ASSERT_TRUE(g4.has_value());
  EXPECT_TRUE(IsValidCommunity(g, g4->members, v('g'), 4));
}

TEST(BaselineTest, AgreesWithGlobalOnFeasibility) {
  // Exponential search: a few queries would run for hours, so each gets
  // 2^22 search steps, and one that runs out is skipped.
  QueryLimits limits;
  limits.work_budget = uint64_t{1} << 22;
  for (uint64_t seed : {5u, 6u, 7u}) {
    Graph g = gen::ErdosRenyiGnp(18, 0.3, seed);
    for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 2) {
      for (uint32_t k = 1; k <= 5; ++k) {
        QueryGuard guard(limits);
        const SearchResult base = BaselineCst(g, v0, k, &guard);
        EXPECT_EQ(validate::CheckSearchResult(g, base, {v0}, k), "")
            << "seed=" << seed << " v0=" << v0 << " k=" << k;
        if (base.Interrupted()) continue;
        const auto global = GlobalCst(g, v0, k);
        EXPECT_EQ(base.has_value(), global.has_value())
            << "seed=" << seed << " v0=" << v0 << " k=" << k;
        if (base.has_value()) {
          EXPECT_TRUE(IsValidCommunity(g, base->members, v0, k));
        }
      }
    }
  }
}

TEST(BaselineTest, BudgetExhaustionReported) {
  // A graph whose CST(k) is infeasible but whose neighborhood explodes:
  // the search must hit the budget and say so (mirrors the paper's
  // Table 2 finding that the baseline rarely answers within a minute).
  // One guard unit is one search step.
  Graph g = gen::ErdosRenyiGnp(60, 0.25, 17);
  QueryLimits limits;
  limits.work_budget = 200;
  uint64_t exhausted = 0;
  for (VertexId v0 = 0; v0 < 10; ++v0) {
    QueryGuard guard(limits);
    const SearchResult result = BaselineCst(g, v0, 12, &guard);
    EXPECT_EQ(validate::CheckSearchResult(g, result, {v0}, 12), "");
    if (result.Interrupted()) {
      ++exhausted;
      EXPECT_EQ(result.status, Termination::kBudgetExhausted);
      EXPECT_GE(Steps(result), 200u);
      EXPECT_EQ(result.best_so_far.members, std::vector<VertexId>{v0});
      EXPECT_EQ(result.best_so_far.min_degree, 0u);
    }
  }
  EXPECT_GT(exhausted, 0u);
}

TEST(BaselineTest, MonotoneSequenceInvariant) {
  // Theorem 2: the baseline only takes non-decreasing δ steps, so when it
  // finds an answer the answer's δ is at least k.
  Graph g = gen::Barbell(5, 1);
  for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
    for (uint32_t k = 1; k <= 4; ++k) {
      const SearchResult result = BaselineCst(g, v0, k);
      if (result.has_value()) {
        EXPECT_GE(result->min_degree, k);
      }
    }
  }
}

}  // namespace
}  // namespace locs
