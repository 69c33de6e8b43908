// Property-based differential tests: seeded random graphs from src/gen/,
// local solvers checked against the global baselines, the searcher's
// CoreIndex answers checked against the bare solvers and the global
// multi-vertex oracles, and the telemetry layer checked against the
// legacy counters and against itself (timing on vs off).
//
// Three graph families (Erdős–Rényi, Barabási–Albert, planted partition)
// × three seeds × several query vertices × several k give well over 50
// (graph, query) combinations per solver pair. Every assertion is inside
// a SCOPED_TRACE carrying the case label (family, size, seed) and the
// query, so a failure prints the exact combination to replay.

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/global.h"
#include "core/kcore.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/multi.h"
#include "core/searcher.h"
#include "core/snapshot.h"
#include "core/validate.h"
#include "graph/builder.h"
#include "graph/ordering.h"
#include "graph/subgraph.h"
#include "gtest/gtest.h"
#include "obs/recorder.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::GraphCase;
using testing::PropertyGraphs;

/// A deterministic spread of query vertices across the id range.
std::vector<VertexId> QueryVertices(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  return {0, n / 4, n / 2, static_cast<VertexId>(3 * (n / 4)),
          static_cast<VertexId>(n - 1)};
}

/// Asserts a found community is sound: contains v0, connected, induced
/// minimum degree at least k (CheckCommunity re-verifies all three).
void ExpectSoundCst(const Graph& graph, const SearchResult& result,
                    VertexId v0, uint32_t k) {
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->min_degree, k);
  const std::string err =
      validate::CheckCommunity(graph, *result.community, {v0});
  EXPECT_TRUE(err.empty()) << err;
}

// ---------------------------------------------------------------------
// Local CST (naive / lg / li, ordered and unordered adjacency) vs the
// global peel: identical feasibility, and every positive answer sound.
// ---------------------------------------------------------------------
TEST(PropertyCst, LocalStrategiesAgreeWithGlobalFeasibility) {
  for (const GraphCase& c : PropertyGraphs()) {
    const GraphFacts facts = GraphFacts::Compute(c.graph);
    const OrderedAdjacency ordered(c.graph);
    LocalCstSolver with_order(c.graph, &ordered, &facts);
    LocalCstSolver without_order(c.graph, nullptr, &facts);
    for (const VertexId v0 : QueryVertices(c.graph)) {
      for (uint32_t k = 1; k <= 5; ++k) {
        SCOPED_TRACE(c.label + " v0=" + std::to_string(v0) +
                     " k=" + std::to_string(k));
        const SearchResult global = GlobalCst(c.graph, v0, k);
        ASSERT_FALSE(global.Interrupted());
        if (global.has_value()) ExpectSoundCst(c.graph, global, v0, k);
        for (const Strategy strategy :
             {Strategy::kNaive, Strategy::kLG, Strategy::kLI}) {
          for (LocalCstSolver* solver : {&with_order, &without_order}) {
            SCOPED_TRACE(std::string("strategy=") +
                         std::string(StrategyName(strategy)) +
                         (solver == &with_order ? " ordered" : " plain"));
            CstOptions options;
            options.strategy = strategy;
            const SearchResult local = solver->Solve(v0, k, options);
            ASSERT_FALSE(local.Interrupted());
            // Local CST is exact on existence (Theorem 2 / the G[C]
            // fallback): it finds an answer iff the global peel does.
            ASSERT_EQ(local.has_value(), global.has_value());
            if (local.has_value()) ExpectSoundCst(c.graph, local, v0, k);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Local CSM solutions 1 and 2 with the budget disabled (γ → −∞, the
// exhaustive regime of Theorem 6) vs the global optimum δ = core(v0).
// ---------------------------------------------------------------------
TEST(PropertyCsm, ExhaustiveLocalMatchesGlobalOptimum) {
  const double kNoBudget = -std::numeric_limits<double>::infinity();
  for (const GraphCase& c : PropertyGraphs()) {
    const GraphFacts facts = GraphFacts::Compute(c.graph);
    const OrderedAdjacency ordered(c.graph);
    LocalCsmSolver solver(c.graph, &ordered, &facts);
    const CoreDecomposition cores = ComputeCores(c.graph);
    for (const VertexId v0 : QueryVertices(c.graph)) {
      SCOPED_TRACE(c.label + " v0=" + std::to_string(v0));
      const SearchResult global = GlobalCsm(c.graph, v0);
      ASSERT_TRUE(global.has_value());
      ASSERT_EQ(global->min_degree, cores.core[v0]);

      CsmOptions csm1;
      csm1.candidate_rule = CsmCandidateRule::kFromVisited;
      csm1.gamma = kNoBudget;
      CsmOptions csm2;
      csm2.candidate_rule = CsmCandidateRule::kFromNaive;
      for (const CsmOptions& options : {csm1, csm2}) {
        SCOPED_TRACE(options.candidate_rule ==
                             CsmCandidateRule::kFromVisited
                         ? "csm1-exhaustive"
                         : "csm2");
        const SearchResult local = solver.Solve(v0, options);
        ASSERT_FALSE(local.Interrupted());
        ASSERT_TRUE(local.has_value());
        // Exact regimes must reach the optimal goodness, and the answer
        // must be a genuine community achieving it.
        EXPECT_EQ(local->min_degree, global->min_degree);
        const std::string err =
            validate::CheckCommunity(c.graph, *local.community, {v0});
        EXPECT_TRUE(err.empty()) << err;
      }

      // A finite γ budget may reduce quality but never exceeds the
      // optimum and never produces an unsound community.
      for (const double gamma : {0.0, 1.0}) {
        CsmOptions options;
        options.candidate_rule = CsmCandidateRule::kFromVisited;
        options.gamma = gamma;
        const SearchResult local = solver.Solve(v0, options);
        ASSERT_TRUE(local.has_value());
        EXPECT_LE(local->min_degree, global->min_degree);
        const std::string err =
            validate::CheckCommunity(c.graph, *local.community, {v0});
        EXPECT_TRUE(err.empty()) << err;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Telemetry differential: the per-phase counters must (a) be identical
// with timing on and off (the recorder must never change what the solver
// does), and (b) describe the answer (answer_size, no clock time when
// timing is off).
// ---------------------------------------------------------------------
void ExpectSameCounters(const obs::QueryTelemetry& a,
                        const obs::QueryTelemetry& b) {
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    const obs::PhaseStats& pa = a.phases[i];
    const obs::PhaseStats& pb = b.phases[i];
    SCOPED_TRACE("phase=" + std::string(obs::PhaseName(
                                static_cast<obs::Phase>(i))));
    EXPECT_EQ(pa.entered, pb.entered);
    EXPECT_EQ(pa.vertices_visited, pb.vertices_visited);
    EXPECT_EQ(pa.edges_scanned, pb.edges_scanned);
    EXPECT_EQ(pa.candidates_generated, pb.candidates_generated);
    EXPECT_EQ(pa.candidates_rejected, pb.candidates_rejected);
    EXPECT_EQ(pa.budget_spent, pb.budget_spent);
  }
  EXPECT_EQ(a.used_global_fallback, b.used_global_fallback);
  EXPECT_EQ(a.answer_size, b.answer_size);
}

TEST(PropertyTelemetry, CountersAreTimingInertAndDescribeTheAnswer) {
  for (const GraphCase& c : PropertyGraphs()) {
    const GraphFacts facts = GraphFacts::Compute(c.graph);
    const OrderedAdjacency ordered(c.graph);
    LocalCstSolver cst(c.graph, &ordered, &facts);
    LocalCsmSolver csm(c.graph, &ordered, &facts);
    obs::AggregateRecorder aggregate;
    uint64_t expected_queries = 0;
    for (const VertexId v0 : QueryVertices(c.graph)) {
      for (uint32_t k = 1; k <= 4; ++k) {
        SCOPED_TRACE(c.label + " v0=" + std::to_string(v0) +
                     " k=" + std::to_string(k));
        // Pass 1: default null recorder (timing off).
        cst.set_recorder(nullptr);
        const SearchResult plain = cst.Solve(v0, k);
        // (b) telemetry describes the answer.
        EXPECT_EQ(plain.telemetry.answer_size,
                  plain.has_value() ? plain->members.size() : 0u);
        EXPECT_EQ(plain.telemetry.TotalDurationNs(), 0u);

        // Pass 2: timing-enabled aggregate recorder attached.
        cst.set_recorder(&aggregate);
        ++expected_queries;
        const SearchResult timed = cst.Solve(v0, k);
        EXPECT_EQ(timed.has_value(), plain.has_value());
        if (timed.has_value()) {
          EXPECT_EQ(timed->members, plain->members);
          EXPECT_EQ(timed->min_degree, plain->min_degree);
        }
        // (a) identical counters whether or not the clock runs.
        ExpectSameCounters(timed.telemetry, plain.telemetry);
      }
      // Same invariants through the CSM solver.
      SCOPED_TRACE(c.label + " csm v0=" + std::to_string(v0));
      csm.set_recorder(nullptr);
      const SearchResult plain = csm.Solve(v0);
      csm.set_recorder(&aggregate);
      ++expected_queries;
      const SearchResult timed = csm.Solve(v0, {});
      ASSERT_EQ(timed.has_value(), plain.has_value());
      if (timed.has_value()) {
        EXPECT_EQ(timed->members, plain->members);
      }
      ExpectSameCounters(timed.telemetry, plain.telemetry);
    }
    // The aggregate saw exactly the timed queries.
    const obs::AggregateRecorder::Totals totals = aggregate.Snapshot();
    EXPECT_EQ(totals.queries, expected_queries);
  }
}

// ---------------------------------------------------------------------
// CommunitySearcher's CoreIndex answers: Cst answers kNotExists exactly
// when v lies outside the k-core and otherwise returns what a bare local
// solver over the same snapshot (core numbers included) returns. The
// core-pruned answer equals the paper solver's wherever the latter ends
// in early success, and is a valid subset of it where the latter falls
// back to the G[C] peel. CstMulti returns the maximal
// answer: status, δ and members vector equal GlobalCstMulti's, and the
// bare solver's local CstMulti answer lies inside it.
// ---------------------------------------------------------------------
/// Status, δ and the members vector (BFS order included) agree.
void ExpectSameAnswer(const SearchResult& served, const SearchResult& oracle) {
  ASSERT_EQ(served.status, oracle.status);
  if (!oracle.has_value()) return;
  EXPECT_EQ(served->members, oracle->members);
  EXPECT_EQ(served->min_degree, oracle->min_degree);
}

TEST(PropertySearcher, IndexNegativesMatchBareSolvers) {
  for (const GraphCase& c : PropertyGraphs()) {
    const auto snapshot =
        std::make_shared<const Snapshot>(Snapshot::Build(c.graph));
    const Graph& g = snapshot->graph;
    const CoreIndex& index = snapshot->index;
    CommunitySearcher searcher(snapshot);
    LocalCstSolver cst(g, &snapshot->ordered, &snapshot->facts,
                       index.core_numbers().span());
    const VertexId n = g.NumVertices();
    for (VertexId v = 0; v < n; ++v) {
      const VertexId partner = (v * 7 + 3) % n;
      for (uint32_t k = 0; k <= index.Degeneracy() + 1; ++k) {
        SCOPED_TRACE(c.label + " v=" + std::to_string(v) +
                     " partner=" + std::to_string(partner) +
                     " k=" + std::to_string(k));
        const SearchResult single = searcher.Cst(v, k);
        ASSERT_EQ(single.status == Termination::kNotExists,
                  !index.HasCst(v, k));
        if (single.has_value()) {
          const SearchResult bare = cst.Solve(v, k);
          ASSERT_TRUE(bare.has_value());
          EXPECT_EQ(single->members, bare->members);
          EXPECT_EQ(single->min_degree, bare->min_degree);
        }
        if (partner == v) continue;
        const std::vector<VertexId> seeds = {v, partner};
        const SearchResult pair = searcher.CstMulti(seeds, k);
        if (!index.HasCst(v, k) || !index.HasCst(partner, k)) {
          EXPECT_EQ(pair.status, Termination::kNotExists);
          EXPECT_EQ(pair.telemetry.TotalWork(), 0u);
        }
        ExpectSameAnswer(pair, GlobalCstMulti(g, seeds, k));
        if (pair.has_value()) {
          EXPECT_EQ(pair.telemetry.TotalVisited(), pair->members.size());
          EXPECT_FALSE(pair.telemetry.used_global_fallback);
        }
        const SearchResult local = cst.CstMulti(seeds, k);
        ASSERT_EQ(local.has_value(), pair.has_value());
        if (local.has_value()) {
          const std::set<VertexId> answer(pair->members.begin(),
                                          pair->members.end());
          for (const VertexId w : local->members) {
            EXPECT_EQ(answer.count(w), 1u) << "local member " << w;
          }
        }
      }
    }
  }
}

TEST(PropertySearcher, CorePrunedCstMatchesPaperSolverOutsideFallback) {
  uint64_t fallbacks = 0;
  for (const GraphCase& c : PropertyGraphs()) {
    const auto snapshot =
        std::make_shared<const Snapshot>(Snapshot::Build(c.graph));
    const Graph& g = snapshot->graph;
    const CoreIndex& index = snapshot->index;
    CommunitySearcher searcher(snapshot);
    LocalCstSolver paper(g, &snapshot->ordered, &snapshot->facts);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (uint32_t k = 0; k <= index.CoreNumber(v); ++k) {
        SCOPED_TRACE(c.label + " v=" + std::to_string(v) +
                     " k=" + std::to_string(k));
        const SearchResult pruned = searcher.Cst(v, k);
        const SearchResult oracle = paper.Solve(v, k);
        ASSERT_TRUE(oracle.Found());
        ASSERT_TRUE(pruned.Found());
        EXPECT_FALSE(pruned.telemetry.used_global_fallback);
        if (!oracle.telemetry.used_global_fallback) {
          EXPECT_EQ(pruned->members, oracle->members);
          EXPECT_EQ(pruned->min_degree, oracle->min_degree);
          continue;
        }
        ++fallbacks;
        ExpectSoundCst(g, pruned, v, k);
        const std::set<VertexId> answer(oracle->members.begin(),
                                        oracle->members.end());
        for (const VertexId w : pruned->members) {
          EXPECT_EQ(answer.count(w), 1u) << "pruned member " << w;
        }
      }
    }
  }
  // The paper solver's fallback class must actually be exercised.
  EXPECT_GT(fallbacks, 0u);
}

// ---------------------------------------------------------------------
// CommunitySearcher::CsmMulti (core-forest common node + component BFS) vs
// GlobalCsmMulti's binary search: status, δ and members vector agree on
// every seed pair, on three-seed sets, and on the disconnected-seed
// singleton. CstMulti at the optimum and one above brackets it.
// ---------------------------------------------------------------------
TEST(PropertySearcher, CsmMultiMatchesGlobalCsmMulti) {
  for (const GraphCase& c : PropertyGraphs()) {
    const auto snapshot =
        std::make_shared<const Snapshot>(Snapshot::Build(c.graph));
    const Graph& g = snapshot->graph;
    CommunitySearcher searcher(snapshot);
    const VertexId n = g.NumVertices();
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        SCOPED_TRACE(c.label + " seeds=" + std::to_string(u) + "," +
                     std::to_string(v));
        const std::vector<VertexId> seeds = {u, v};
        const SearchResult served = searcher.CsmMulti(seeds);
        const SearchResult oracle = GlobalCsmMulti(g, seeds);
        ExpectSameAnswer(served, oracle);
        ASSERT_TRUE(served.has_value());
        EXPECT_FALSE(served.telemetry.used_global_fallback);
        if (served->members.size() == 1) continue;  // disconnected seeds
        const uint32_t delta = served->min_degree;
        ExpectSameAnswer(searcher.CstMulti(seeds, delta),
                         GlobalCstMulti(g, seeds, delta));
        EXPECT_EQ(searcher.CstMulti(seeds, delta + 1).status,
                  Termination::kNotExists);
      }
    }
    for (VertexId v = 0; v + 2 < n; v += 5) {
      const std::vector<VertexId> seeds = {
          v, static_cast<VertexId>((v * 13 + 7) % n),
          static_cast<VertexId>((v * 29 + 11) % n)};
      if (seeds[1] == v || seeds[2] == v || seeds[1] == seeds[2]) continue;
      SCOPED_TRACE(c.label + " seeds=" + std::to_string(seeds[0]) + "," +
                   std::to_string(seeds[1]) + "," +
                   std::to_string(seeds[2]));
      ExpectSameAnswer(searcher.CsmMulti(seeds), GlobalCsmMulti(g, seeds));
    }
  }
  // Two components: a K4 and a triangle. Seeds across them get the
  // singleton fallback; seeds within one get that component.
  GraphBuilder builder(7);
  for (VertexId a = 0; a < 4; ++a) {
    for (VertexId b = a + 1; b < 4; ++b) builder.AddEdge(a, b);
  }
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 6);
  builder.AddEdge(4, 6);
  const Graph g = builder.Build();
  CommunitySearcher searcher(g);
  for (const std::vector<VertexId>& seeds :
       {std::vector<VertexId>{1, 5}, std::vector<VertexId>{6, 0, 2},
        std::vector<VertexId>{0, 3}, std::vector<VertexId>{4, 6}}) {
    SCOPED_TRACE("two components seeds[0]=" + std::to_string(seeds[0]));
    const SearchResult served = searcher.CsmMulti(seeds);
    ExpectSameAnswer(served, GlobalCsmMulti(g, seeds));
    EXPECT_TRUE(validate::CheckSearchResult(
                    g, served, validate::CsmMultiQuery(served, seeds), 0)
                    .empty());
  }
  EXPECT_EQ(searcher.CsmMulti({1, 5})->members, std::vector<VertexId>{1});
  EXPECT_EQ(searcher.CsmMulti({1, 5})->min_degree, 0u);
  EXPECT_EQ(searcher.CsmMulti({0, 3})->min_degree, 3u);
}

// ---------------------------------------------------------------------
// CommunitySearcher::Csm answers from the CoreIndex: δ is the core
// number (and GlobalCsm's δ); where local CSM2 falls back to G[C] both
// return v0's maxcore component in the same BFS order, and where CSM2
// stops early at the Eq.-7 bound its smaller prefix lies inside it.
// ---------------------------------------------------------------------
TEST(PropertySearcher, IndexCsmMatchesLocalCsm2) {
  for (const GraphCase& c : PropertyGraphs()) {
    const auto snapshot =
        std::make_shared<const Snapshot>(Snapshot::Build(c.graph));
    const Graph& g = snapshot->graph;
    CommunitySearcher searcher(snapshot);
    LocalCsmSolver csm2(g, &snapshot->ordered, &snapshot->facts);
    const CoreDecomposition cores = ComputeCores(g);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      SCOPED_TRACE(c.label + " v=" + std::to_string(v));
      const SearchResult index = searcher.Csm(v);
      ASSERT_TRUE(index.has_value());
      EXPECT_EQ(index->min_degree, cores.core[v]);
      const SearchResult global = GlobalCsm(g, v);
      ASSERT_TRUE(global.has_value());
      EXPECT_EQ(index->min_degree, global->min_degree);
      const SearchResult local = csm2.Solve(v, {});
      ASSERT_TRUE(local.has_value());
      if (local.telemetry.used_global_fallback) {
        EXPECT_EQ(index->members, local->members);
      } else {
        const std::set<VertexId> answer(index->members.begin(),
                                        index->members.end());
        for (const VertexId w : local->members) {
          EXPECT_EQ(answer.count(w), 1u) << "prefix member " << w;
        }
      }
      const std::string err =
          validate::CheckCommunity(g, *index.community, {v});
      EXPECT_TRUE(err.empty()) << err;
      EXPECT_EQ(index.telemetry.TotalVisited(), index->members.size());
    }
  }
}

}  // namespace
}  // namespace locs
