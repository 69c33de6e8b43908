// Tests for QueryGuard budget enforcement and the graceful-degradation
// contract: every solver family, when interrupted, returns a valid
// connected best-so-far community, and budget trips are deterministic.

#include "util/guard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/global.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/mcst.h"
#include "core/multi.h"
#include "core/result.h"
#include "core/searcher.h"
#include "core/snapshot.h"
#include "core/validate.h"
#include "exec/batch_runner.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/ordering.h"
#include "graph/subgraph.h"
#include "test_util.h"
#include "util/failpoint.h"

namespace locs {
namespace {

using testing::ToSet;

/// A guard whose deadline is already in the past: the first Spend trips
/// with kDeadline, deterministically.
QueryGuard ExpiredGuard() {
  QueryLimits limits;
  limits.deadline_ms = 1000.0;
  QueryGuard guard(limits);
  guard.LimitDeadline(QueryGuard::Clock::now() -
                      std::chrono::milliseconds(1));
  return guard;
}

QueryGuard BudgetGuard(uint64_t budget) {
  QueryLimits limits;
  limits.work_budget = budget;
  return QueryGuard(limits);
}

/// The degradation contract for an interrupted result: a connected
/// community containing v0 whose reported min_degree is exact.
void ExpectValidPartial(const Graph& g, const SearchResult& result,
                        VertexId v0) {
  ASSERT_TRUE(result.Interrupted());
  EXPECT_FALSE(result.has_value());
  const Community& partial = result.best_so_far;
  ASSERT_FALSE(partial.members.empty());
  EXPECT_TRUE(IsConnectedSubset(g, partial.members));
  EXPECT_NE(ToSet(partial.members).count(v0), 0u);
  EXPECT_EQ(partial.min_degree, MinDegreeOfInduced(g, partial.members));
}

// ---------------------------------------------------------------------------
// QueryGuard unit behavior.

TEST(QueryGuardTest, UnlimitedGuardNeverStops) {
  QueryGuard guard;
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(guard.Spend(1000));
  EXPECT_FALSE(guard.Stopped());
  EXPECT_EQ(guard.spent(), 10000u * 1000u);
}

TEST(QueryGuardTest, AllZeroLimitsAreUnlimited) {
  QueryGuard guard((QueryLimits()));
  EXPECT_FALSE(guard.Spend(uint64_t{1} << 40));
  EXPECT_FALSE(guard.Stopped());
}

TEST(QueryGuardTest, WorkBudgetTripsAndStaysTripped) {
  QueryGuard guard = BudgetGuard(100);
  EXPECT_FALSE(guard.Spend(50));
  EXPECT_TRUE(guard.Spend(60));  // 110 > 100
  EXPECT_TRUE(guard.Stopped());
  EXPECT_EQ(guard.cause(), Termination::kBudgetExhausted);
  // Sticky: even a zero-cost poll still reports the trip.
  EXPECT_TRUE(guard.Spend(0));
}

TEST(QueryGuardTest, BudgetNeverCoastsAFullPollIntervalPast) {
  // Budget far below kPollInterval: the cap on next_poll_ must trip the
  // guard at the first Spend crossing the budget, not ~1024 units later.
  QueryGuard guard = BudgetGuard(10);
  EXPECT_FALSE(guard.Spend(10));  // exactly at budget: not yet over
  EXPECT_TRUE(guard.Spend(1));    // 11 > 10
  EXPECT_EQ(guard.cause(), Termination::kBudgetExhausted);
}

TEST(QueryGuardTest, BudgetTripIsAPureFunctionOfTheDeltaSequence) {
  const std::vector<uint64_t> deltas = {3, 700, 41, 512, 512, 97, 2048};
  std::vector<int> trip_points;
  for (int run = 0; run < 3; ++run) {
    QueryGuard guard = BudgetGuard(1500);
    int tripped_at = -1;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (guard.Spend(deltas[i]) && tripped_at < 0) {
        tripped_at = static_cast<int>(i);
      }
    }
    trip_points.push_back(tripped_at);
  }
  EXPECT_EQ(trip_points[0], trip_points[1]);
  EXPECT_EQ(trip_points[1], trip_points[2]);
  EXPECT_GE(trip_points[0], 0);
}

TEST(QueryGuardTest, ExpiredDeadlineTripsOnFirstSpend) {
  QueryGuard guard = ExpiredGuard();
  EXPECT_TRUE(guard.Spend(1));
  EXPECT_EQ(guard.cause(), Termination::kDeadline);
}

TEST(QueryGuardTest, UnrepresentableDeadlineNeverTrips) {
  // Past ~9.2e12 ms the nanosecond tick count no longer fits in int64:
  // such a deadline saturates to "never" instead of expiring at once.
  for (const double ms :
       {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    QueryLimits limits;
    limits.deadline_ms = ms;
    QueryGuard guard(limits);
    EXPECT_FALSE(guard.Spend(1)) << ms;
    EXPECT_FALSE(guard.Stopped()) << ms;
    EXPECT_EQ(DeadlineAfterMs(ms), QueryGuard::Clock::time_point::max())
        << ms;
  }
}

TEST(QueryGuardTest, CancelFlagTrips) {
  std::atomic<bool> cancel{false};
  QueryLimits limits;
  limits.cancel = &cancel;
  QueryGuard guard(limits);
  EXPECT_FALSE(guard.Spend(1));
  cancel.store(true);
  // The flag is polled at most every kPollInterval units.
  EXPECT_TRUE(guard.Spend(2 * QueryGuard::kPollInterval));
  EXPECT_EQ(guard.cause(), Termination::kCancelled);
}

TEST(QueryGuardTest, ForceDeadlineFailpointTripsAnyLimitedGuard) {
  failpoint::ScopedFailpoint fp("guard.force_deadline");
  QueryGuard guard = BudgetGuard(uint64_t{1} << 40);
  EXPECT_TRUE(guard.Spend(1));
  EXPECT_EQ(guard.cause(), Termination::kDeadline);
  EXPECT_GE(failpoint::HitCount("guard.force_deadline"), 1u);
}

// ---------------------------------------------------------------------------
// Local CST under guards.

TEST(GuardedCstTest, GenerousBudgetMatchesUnguardedAnswer) {
  Graph g = gen::ErdosRenyiGnp(200, 0.06, 11);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 17) {
    const SearchResult plain = solver.Solve(v0, 4);
    QueryGuard guard = BudgetGuard(uint64_t{1} << 40);
    const SearchResult guarded = solver.Solve(v0, 4, {}, nullptr, &guard);
    ASSERT_EQ(guarded.status, plain.status) << "v0=" << v0;
    if (plain.has_value()) {
      EXPECT_EQ(guarded->members, plain->members);
      EXPECT_EQ(guarded->min_degree, plain->min_degree);
    }
  }
}

TEST(GuardedCstTest, CliqueUnderTinyBudgetDegradesGracefully) {
  Graph g = gen::Clique(60);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  QueryGuard guard = BudgetGuard(40);
  const SearchResult result = solver.Solve(7, 59, {}, nullptr, &guard);
  ASSERT_EQ(result.status, Termination::kBudgetExhausted);
  ExpectValidPartial(g, result, 7);
}

TEST(GuardedCstTest, BudgetLadderAlwaysYieldsValidResults) {
  // At every budget the answer is either exact (kFound/kNotExists,
  // matching the unguarded run) or a valid connected partial.
  Graph g = gen::ErdosRenyiGnp(400, 0.03, 5);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  const VertexId v0 = 13;
  const SearchResult exact = solver.Solve(v0, 4);
  for (uint64_t budget : {5u, 50u, 200u, 1000u, 20000u, 2000000u}) {
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = solver.Solve(v0, 4, {}, nullptr, &guard);
    if (result.Interrupted()) {
      EXPECT_EQ(result.status, Termination::kBudgetExhausted);
      ExpectValidPartial(g, result, v0);
    } else {
      ASSERT_EQ(result.status, exact.status) << "budget=" << budget;
      if (exact.has_value()) {
        EXPECT_EQ(result->members, exact->members);
      }
    }
  }
}

TEST(GuardedCstTest, InterruptedRunsAreRepeatable) {
  // Budget trips are deterministic: two identical guarded runs produce
  // byte-identical partial answers.
  Graph g = gen::ErdosRenyiGnp(300, 0.05, 21);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  for (uint64_t budget : {30u, 300u, 3000u}) {
    QueryGuard first_guard = BudgetGuard(budget);
    const SearchResult first = solver.Solve(9, 5, {}, nullptr, &first_guard);
    QueryGuard again_guard = BudgetGuard(budget);
    const SearchResult again = solver.Solve(9, 5, {}, nullptr, &again_guard);
    EXPECT_EQ(first.status, again.status) << "budget=" << budget;
    EXPECT_EQ(first.best_so_far.members, again.best_so_far.members);
    EXPECT_EQ(first.community.has_value(), again.community.has_value());
    if (first.community.has_value()) {
      EXPECT_EQ(first.community->members, again.community->members);
    }
  }
}

TEST(GuardedCstTest, ExpiredDeadlineReturnsPartialImmediately) {
  Graph g = gen::Clique(30);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  QueryGuard guard = ExpiredGuard();
  const SearchResult result = solver.Solve(0, 10, {}, nullptr, &guard);
  ASSERT_EQ(result.status, Termination::kDeadline);
  ExpectValidPartial(g, result, 0);
}

TEST(GuardedCstTest, PresetCancelReturnsSingleton) {
  Graph g = gen::Clique(30);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  std::atomic<bool> cancel{true};
  QueryLimits limits;
  limits.cancel = &cancel;
  QueryGuard guard(limits);
  const SearchResult result = solver.Solve(4, 10, {}, nullptr, &guard);
  ASSERT_EQ(result.status, Termination::kCancelled);
  ExpectValidPartial(g, result, 4);
}

TEST(GuardedCstTest, NotExistsStaysExactUnderGenerousGuard) {
  // A path has no CST(2) answer anywhere; a generous guard must not turn
  // that exact negative into an interruption.
  Graph g = gen::Path(500);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  QueryGuard guard = BudgetGuard(uint64_t{1} << 40);
  const SearchResult result = solver.Solve(250, 2, {}, nullptr, &guard);
  EXPECT_EQ(result.status, Termination::kNotExists);
  EXPECT_FALSE(result.has_value());
}

// ---------------------------------------------------------------------------
// Global CST under guards (mid-peel interruption).

TEST(GuardedGlobalCstTest, BudgetLadderMidPeel) {
  Graph g = gen::ErdosRenyiGnp(500, 0.02, 31);
  const VertexId v0 = 3;
  const SearchResult exact = GlobalCst(g, v0, 3);
  for (uint64_t budget : {10u, 600u, 2000u, 10000u, 10000000u}) {
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = GlobalCst(g, v0, 3, &guard);
    if (result.Interrupted()) {
      EXPECT_EQ(result.status, Termination::kBudgetExhausted);
      ExpectValidPartial(g, result, v0);
    } else {
      ASSERT_EQ(result.status, exact.status) << "budget=" << budget;
      if (exact.has_value()) {
        EXPECT_EQ(ToSet(result->members), ToSet(exact->members));
      }
    }
  }
}

TEST(GuardedGlobalCstTest, PeeledQueryVertexIsExactNotExistsMidPeel) {
  // Star: every leaf (and then the center) peels instantly at k=2. Even a
  // tiny budget must report the exact kNotExists once v0 is peeled, not
  // an interruption (peel removals are sound regardless of the trip).
  Graph g = gen::Star(4000);
  for (uint64_t budget : {4100u, 6000u, 12000u}) {
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = GlobalCst(g, 1, 2, &guard);
    if (!result.Interrupted()) {
      EXPECT_EQ(result.status, Termination::kNotExists);
    }
  }
  // Unguarded reference: provably no answer.
  EXPECT_EQ(GlobalCst(g, 1, 2).status, Termination::kNotExists);
}

// ---------------------------------------------------------------------------
// CSM under guards.

TEST(GuardedCsmTest, StarUnderTinyBudgetDegradesGracefully) {
  Graph g = gen::Star(5000);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  QueryGuard guard = BudgetGuard(60);
  const SearchResult result = solver.Solve(0, {}, nullptr, &guard);
  ASSERT_EQ(result.status, Termination::kBudgetExhausted);
  ExpectValidPartial(g, result, 0);
}

TEST(GuardedCsmTest, BudgetLadderAlwaysYieldsValidResults) {
  Graph g = gen::ErdosRenyiGnp(300, 0.04, 77);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCsmSolver solver(g, nullptr, &facts);
  const VertexId v0 = 8;
  const SearchResult exact = solver.Solve(v0);
  ASSERT_TRUE(exact.has_value());
  for (uint64_t budget : {10u, 100u, 1000u, 50000u, 5000000u}) {
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = solver.Solve(v0, {}, nullptr, &guard);
    if (result.Interrupted()) {
      EXPECT_EQ(result.status, Termination::kBudgetExhausted);
      ExpectValidPartial(g, result, v0);
      // A partial CSM answer never overstates the optimum.
      EXPECT_LE(result.best_so_far.min_degree, exact->min_degree);
    } else {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->min_degree, exact->min_degree);
    }
  }
}

TEST(GuardedCsmTest, GlobalCsmChecksGuardBeforeItsIndivisiblePass) {
  Graph g = gen::Clique(20);
  QueryGuard guard = ExpiredGuard();
  const SearchResult result = GlobalCsm(g, 5, &guard);
  ASSERT_EQ(result.status, Termination::kDeadline);
  ExpectValidPartial(g, result, 5);
}

// ---------------------------------------------------------------------------
// Multi-vertex solvers under guards.

TEST(GuardedMultiTest, BudgetLadderKeepsAnchorFragmentValid) {
  Graph g = gen::Barbell(8, 4);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  const std::vector<VertexId> query = {
      0, static_cast<VertexId>(g.NumVertices() - 1)};
  const SearchResult exact = solver.CstMulti(query, 2);
  ASSERT_TRUE(exact.has_value());
  for (uint64_t budget : {5u, 40u, 200u, 4000u}) {
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result =
        solver.CstMulti(query, 2, nullptr, &guard);
    if (result.Interrupted()) {
      EXPECT_EQ(result.status, Termination::kBudgetExhausted);
      ExpectValidPartial(g, result, query[0]);
    } else {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(ToSet(result->members), ToSet(exact->members));
    }
  }
}

TEST(GuardedMultiTest, CsmMultiSharesOneGuardAcrossProbes) {
  Graph g = gen::Barbell(6, 3);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  const std::vector<VertexId> query = {
      0, static_cast<VertexId>(g.NumVertices() - 1)};
  // Unlimited: exact δ = 2 (the whole barbell body).
  EXPECT_EQ(solver.CsmMulti(query)->min_degree, 2u);
  // Expired deadline: interrupted; the binary search still surfaces its
  // best proven answer (at worst the trivial singleton fragment).
  QueryGuard guard = ExpiredGuard();
  const SearchResult result = solver.CsmMulti(query, &guard);
  ASSERT_TRUE(result.Interrupted());
  EXPECT_EQ(result.status, Termination::kDeadline);
  ExpectValidPartial(g, result, query[0]);
}

/// Two K5s joined through a K4 (edges 0-10 and 5-11), so {0, 5} has a
/// δ = 3 community. Decoy 14 (neighbors 0, 5 and leaf 15) is the first
/// vertex li admits for that pair, but it never reaches degree 3 inside
/// C, so the expansion runs dry and falls back to the G[C] peel and BFS.
/// Decoy 16 (neighbors 2 and leaves 17, 18) has degree 3 but one neighbor
/// in C: as a seed, the peel removes it.
Graph TwoCliquesWithDecoys() {
  GraphBuilder builder(19);
  auto clique = [&](VertexId first, VertexId size) {
    for (VertexId u = first; u < first + size; ++u) {
      for (VertexId v = u + 1; v < first + size; ++v) builder.AddEdge(u, v);
    }
  };
  clique(0, 5);
  clique(5, 5);
  clique(10, 4);
  builder.AddEdge(0, 10);
  builder.AddEdge(5, 11);
  for (const VertexId w : {0u, 5u, 15u}) builder.AddEdge(14, w);
  for (const VertexId w : {2u, 17u, 18u}) builder.AddEdge(16, w);
  return builder.Build();
}

TEST(GuardedMultiTest, BudgetLadderAcrossTheFallback) {
  const Graph g = TwoCliquesWithDecoys();
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  const std::vector<VertexId> query = {0, 5};
  const SearchResult exact = solver.CstMulti(query, 3);
  ASSERT_TRUE(exact.has_value());
  ASSERT_TRUE(exact.telemetry.used_global_fallback);
  // One rung per unit of work: every guard check of the expansion, the
  // peel and the connectivity BFS trips on some rung.
  bool tripped[obs::kNumPhases] = {};
  for (uint64_t budget = 0; budget <= exact.telemetry.TotalWork(); ++budget) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = solver.CstMulti(query, 3, nullptr, &guard);
    if (result.Interrupted()) {
      EXPECT_EQ(result.status, Termination::kBudgetExhausted);
      ExpectValidPartial(g, result, query[0]);
      size_t last = 0;
      for (size_t p = 0; p < obs::kNumPhases; ++p) {
        if (result.telemetry.phases[p].entered != 0) last = p;
      }
      tripped[last] = true;
    } else {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->members, exact->members);
      EXPECT_EQ(result->min_degree, exact->min_degree);
    }
  }
  for (const obs::Phase phase :
       {obs::Phase::kExpansion, obs::Phase::kCoreDecomposition,
        obs::Phase::kConnectivity}) {
    EXPECT_TRUE(tripped[static_cast<size_t>(phase)])
        << "no rung tripped in phase " << static_cast<int>(phase);
  }
}

TEST(GuardedMultiTest, PeeledSecondSeedStaysAnExactNegative) {
  // Seed 16 has degree 3 but only one neighbor inside C, so the peel
  // removes it first: once the fallback starts, every budget answers an
  // exact kNotExists, and an earlier trip still reports a valid partial.
  const Graph g = TwoCliquesWithDecoys();
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  const std::vector<VertexId> query = {0, 16};
  const SearchResult exact = solver.CstMulti(query, 3);
  ASSERT_EQ(exact.status, Termination::kNotExists);
  ASSERT_TRUE(exact.telemetry.used_global_fallback);
  for (uint64_t budget = 0; budget <= exact.telemetry.TotalWork(); ++budget) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = solver.CstMulti(query, 3, nullptr, &guard);
    if (result.telemetry[obs::Phase::kCoreDecomposition].entered != 0) {
      EXPECT_EQ(result.status, Termination::kNotExists);
    } else {
      ExpectValidPartial(g, result, query[0]);
    }
  }
}

// The searcher answers MULTI from the core index: a pre-tripped guard
// and a trip anywhere in the listing BFS leave a connected partial
// holding query[0] that the LOCS_VALIDATE oracle accepts.
void ExpectValidMultiPartial(const Graph& g, const SearchResult& result,
                             const std::vector<VertexId>& query) {
  ExpectValidPartial(g, result, query[0]);
  EXPECT_EQ(validate::CheckSearchResult(g, result, query, 0), "");
}

TEST(GuardedSearcherTest, MultiQueriesDegradeToValidPartials) {
  const Graph g = gen::ErdosRenyiGnp(150, 0.08, 13);
  CommunitySearcher searcher(g);
  const std::vector<VertexId> query = {0, 149};
  const SearchResult cst_exact = searcher.CstMulti(query, 2);
  ASSERT_TRUE(cst_exact.has_value());
  const SearchResult csm_exact = searcher.CsmMulti(query);
  ASSERT_TRUE(csm_exact.has_value());
  ASSERT_GT(csm_exact->members.size(), 1u);

  {
    QueryGuard guard = ExpiredGuard();
    const SearchResult result = searcher.CstMulti(query, 2, &guard);
    EXPECT_EQ(result.status, Termination::kDeadline);
    ExpectValidMultiPartial(g, result, query);
  }
  {
    QueryGuard guard = ExpiredGuard();
    const SearchResult result = searcher.CsmMulti(query, &guard);
    EXPECT_EQ(result.status, Termination::kDeadline);
    ExpectValidMultiPartial(g, result, query);
  }
  {
    // Budget 1: the BFS's first vertex trips it.
    QueryGuard guard = BudgetGuard(1);
    const SearchResult result = searcher.CstMulti(query, 2, &guard);
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    EXPECT_EQ(result.telemetry[obs::Phase::kConnectivity].vertices_visited,
              1u);
    ExpectValidMultiPartial(g, result, query);
  }
  {
    // Budget 1: the BFS's first vertex trips it; δ came from the core
    // forest, so no other phase runs.
    QueryGuard guard = BudgetGuard(1);
    const SearchResult result = searcher.CsmMulti(query, &guard);
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    EXPECT_EQ(result.telemetry[obs::Phase::kConnectivity].vertices_visited,
              1u);
    EXPECT_EQ(result.telemetry[obs::Phase::kExpansion].entered, 0u);
    ExpectValidMultiPartial(g, result, query);
  }
  // A budget ladder: every trip is a valid partial, and some budget trips
  // the BFS after its first vertex.
  bool tripped_mid_bfs = false;
  for (uint64_t budget = 1; budget < 4 * csm_exact.telemetry.TotalWork();
       budget += 7) {
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = searcher.CsmMulti(query, &guard);
    if (!result.Interrupted()) {
      EXPECT_EQ(result->members, csm_exact->members);
      continue;
    }
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    ExpectValidMultiPartial(g, result, query);
    tripped_mid_bfs =
        tripped_mid_bfs ||
        result.telemetry[obs::Phase::kConnectivity].vertices_visited > 1;
  }
  EXPECT_TRUE(tripped_mid_bfs);
}

TEST(GuardedSearcherTest, ManySeedMultiIsChargedToItsGuard) {
  // A 64 KiB MULTI line carries about 12K distinct seeds. Their range and
  // duplicate check is O(q) and charged to the guard: a budget below the
  // seed count trips before the BFS, one covering seeds and BFS completes.
  constexpr VertexId kSeeds = 12000;
  const Graph g = gen::Cycle(kSeeds + 500);
  CommunitySearcher searcher(g);
  std::vector<VertexId> query(kSeeds);
  for (VertexId i = 0; i < kSeeds; ++i) query[i] = (i * 7919) % kSeeds;
  {
    QueryGuard guard = BudgetGuard(kSeeds / 2);
    const SearchResult result = searcher.CstMulti(query, 2, &guard);
    EXPECT_EQ(result.status, Termination::kBudgetExhausted);
    EXPECT_EQ(result.telemetry.TotalWork(), 0u);
    ExpectValidMultiPartial(g, result, query);
  }
  QueryLimits limits;
  limits.work_budget = kSeeds + 4 * g.NumVertices();
  limits.deadline_ms = 10000.0;
  QueryGuard guard(limits);
  const SearchResult result = searcher.CstMulti(query, 2, &guard);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->members.size(), g.NumVertices());
  EXPECT_EQ(result->min_degree, 2u);
}

// ---------------------------------------------------------------------------
// mCST termination taxonomy.

TEST(GuardedMcstTest, NativeStepCapReportsBudgetExhausted) {
  // Cycle: minimal CST(2) containing v0 is the whole cycle; the clique
  // shortcut cannot answer and deepening needs many steps.
  Graph g = gen::Cycle(14);
  const McstResult capped = ExactMcst(g, 0, 2, /*max_steps=*/3);
  EXPECT_TRUE(capped.budget_exhausted);
  EXPECT_EQ(capped.termination, Termination::kBudgetExhausted);
  ASSERT_TRUE(capped.community.has_value());  // greedy upper bound stands
  EXPECT_TRUE(IsValidCommunity(g, capped.community->members, 0, 2));

  const McstResult full = ExactMcst(g, 0, 2, 100000000);
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_EQ(full.termination, Termination::kFound);
  ASSERT_TRUE(full.community.has_value());
  EXPECT_EQ(full.community->members.size(), 14u);
}

TEST(GuardedMcstTest, GuardDeadlinePropagatesIntoTermination) {
  Graph g = gen::Cycle(12);
  QueryGuard guard = ExpiredGuard();
  const McstResult result = ExactMcst(g, 0, 2, 100000000, &guard);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.termination, Termination::kDeadline);
}

TEST(GuardedMcstTest, GreedyMcstGuardTripStillReturnsValidCommunity) {
  Graph g = gen::Clique(40);
  const SearchResult exact = GreedyMcst(g, 0, 10);
  ASSERT_TRUE(exact.Found());
  EXPECT_TRUE(IsValidCommunity(g, exact->members, 0, 10));
  for (uint64_t budget : {50u, 500u, 5000u, 500000u}) {
    QueryGuard guard = BudgetGuard(budget);
    const SearchResult result = GreedyMcst(g, 0, 10, &guard);
    if (result.Interrupted()) {
      EXPECT_EQ(result.status, Termination::kBudgetExhausted);
      ExpectValidPartial(g, result, 0);
    } else {
      EXPECT_TRUE(IsValidCommunity(g, result->members, 0, 10));
    }
  }
}

// ---------------------------------------------------------------------------
// Facade + failpoint end-to-end.

TEST(GuardedSearcherTest, ForceDeadlineFailpointInterruptsEverySolver) {
  CommunitySearcher searcher(gen::ErdosRenyiGnp(150, 0.08, 13));
  failpoint::ScopedFailpoint fp("guard.force_deadline");
  QueryLimits limits;
  limits.work_budget = uint64_t{1} << 40;  // limited guard => polls run

  {
    QueryGuard guard(limits);
    const SearchResult result = searcher.Cst(0, 3, {}, &guard);
    EXPECT_EQ(result.status, Termination::kDeadline);
  }
  {
    QueryGuard guard(limits);
    const SearchResult result = searcher.Csm(0, &guard);
    EXPECT_EQ(result.status, Termination::kDeadline);
  }
  {
    QueryGuard guard(limits);
    const SearchResult result = GlobalCst(searcher.graph(), 0, 3, &guard);
    EXPECT_EQ(result.status, Termination::kDeadline);
  }
  EXPECT_GE(failpoint::HitCount("guard.force_deadline"), 3u);
}

// ---------------------------------------------------------------------------
// Batch layer: per-query budgets are thread-count invariant.

TEST(GuardedBatchTest, BudgetInterruptionsAreByteIdenticalAcrossThreads) {
  const auto snapshot = std::make_shared<const Snapshot>(
      Snapshot::Build(gen::ErdosRenyiGnp(400, 0.04, 99)));
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < snapshot->graph.NumVertices(); v += 3) {
    queries.push_back(v);
  }

  BatchRunner runner(snapshot);
  BatchLimits reference_limits;
  reference_limits.num_threads = 1;
  reference_limits.query_work_budget = 300;
  const auto reference = runner.RunCst(queries, 4, reference_limits);
  // The tiny budget must actually interrupt something, or this test
  // degenerates.
  ASSERT_GT(reference.stats.CountOf(Termination::kBudgetExhausted), 0u);

  for (unsigned threads : {2u, 8u}) {
    BatchLimits limits;
    limits.num_threads = threads;
    limits.query_work_budget = 300;
    const auto batch = runner.RunCst(queries, 4, limits);
    ASSERT_EQ(batch.results.size(), reference.results.size());
    for (size_t i = 0; i < batch.results.size(); ++i) {
      EXPECT_EQ(batch.results[i].status, reference.results[i].status)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(batch.results[i].best_so_far.members,
                reference.results[i].best_so_far.members);
      ASSERT_EQ(batch.results[i].has_value(),
                reference.results[i].has_value());
      if (batch.results[i].has_value()) {
        EXPECT_EQ(batch.results[i]->members,
                  reference.results[i]->members);
      }
    }
    for (int s = 0; s < kNumTerminations; ++s) {
      EXPECT_EQ(batch.stats.status_counts[s],
                reference.stats.status_counts[s]);
    }
  }
}

TEST(GuardedBatchTest, EveryInterruptedResultSatisfiesTheContract) {
  const auto snapshot = std::make_shared<const Snapshot>(
      Snapshot::Build(gen::ErdosRenyiGnp(300, 0.05, 55)));
  const Graph& g = snapshot->graph;
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < g.NumVertices(); v += 5) queries.push_back(v);

  BatchRunner runner(snapshot);
  BatchLimits limits;
  limits.query_work_budget = 200;
  const auto batch = runner.RunCsm(queries, limits);
  uint64_t interrupted = 0;
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const SearchResult& result = batch.results[i];
    if (result.Interrupted()) {
      ++interrupted;
      ExpectValidPartial(g, result, queries[i]);
      // The searcher's CSM partial is the query vertex alone.
      EXPECT_EQ(result.best_so_far.members, std::vector<VertexId>{queries[i]});
      EXPECT_EQ(result.best_so_far.min_degree, 0u);
    }
  }
  EXPECT_GT(interrupted, 0u);
  EXPECT_EQ(interrupted,
            batch.stats.CountOf(Termination::kBudgetExhausted));
  // status_counts cover every slot exactly once.
  uint64_t total = 0;
  for (int s = 0; s < kNumTerminations; ++s) {
    total += batch.stats.status_counts[s];
  }
  EXPECT_EQ(total, queries.size());
}

}  // namespace
}  // namespace locs
