// Tests for the local CST framework (§4): all three candidate-selection
// strategies, with and without the ordered-adjacency optimization, must
// agree with global search on feasibility, and every returned community
// must be valid. Includes the paper's worked examples.

#include "core/local_cst.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/global.h"
#include "core/kcore.h"
#include "gen/classic.h"
#include "graph/builder.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/powerlaw.h"
#include "graph/subgraph.h"
#include "test_util.h"
#include "util/guard.h"

namespace locs {
namespace {

using testing::ToSet;

struct Config {
  Strategy strategy;
  bool ordered;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  std::string name(StrategyName(info.param.strategy));
  name += info.param.ordered ? "_ordered" : "_plain";
  return name;
}

class LocalCstStrategyTest : public ::testing::TestWithParam<Config> {
 protected:
  SearchResult Solve(const Graph& g, VertexId v0, uint32_t k,
                     std::span<const uint32_t> core = {}) {
    const GraphFacts facts = GraphFacts::Compute(g);
    std::optional<OrderedAdjacency> ordered;
    if (GetParam().ordered) ordered.emplace(g);
    LocalCstSolver solver(g, ordered ? &*ordered : nullptr, &facts, core);
    CstOptions options;
    options.strategy = GetParam().strategy;
    return solver.Solve(v0, k, options);
  }
};

TEST_P(LocalCstStrategyTest, CliqueAllThresholds) {
  Graph g = gen::Clique(7);
  for (uint32_t k = 0; k <= 6; ++k) {
    const auto result = Solve(g, 3, k);
    ASSERT_TRUE(result.has_value()) << "k=" << k;
    EXPECT_TRUE(IsValidCommunity(g, result->members, 3, k));
  }
  EXPECT_FALSE(Solve(g, 3, 7).has_value());
}

TEST_P(LocalCstStrategyTest, ThresholdZeroIsSingleton) {
  Graph g = gen::Path(5);
  const auto result = Solve(g, 2, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->members, std::vector<VertexId>{2});
}

TEST_P(LocalCstStrategyTest, LowDegreeQueryRejectedImmediately) {
  Graph g = gen::Star(10);
  const auto result = Solve(g, 1, 2);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.telemetry.TotalVisited(), 0u);  // Proposition 3 pruning
}

TEST_P(LocalCstStrategyTest, PaperFigure1QueryA) {
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto cst3 = Solve(g, v('a'), 3);
  ASSERT_TRUE(cst3.has_value());
  // {a,b,c,d,e} is the unique CST(3) answer for a (Example 4).
  EXPECT_EQ(ToSet(cst3->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  const auto cst2 = Solve(g, v('a'), 2);
  ASSERT_TRUE(cst2.has_value());
  EXPECT_TRUE(IsValidCommunity(g, cst2->members, v('a'), 2));
  EXPECT_FALSE(Solve(g, v('a'), 4).has_value());
}

TEST_P(LocalCstStrategyTest, PaperFigure1QueryE) {
  // Example 7's setting: query e with k = 3.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto result = Solve(g, v('e'), 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, v('e'), 3));
  EXPECT_GE(result->min_degree, 3u);
}

TEST_P(LocalCstStrategyTest, PaperFigure1QueryG4Core) {
  // CST(4) for g: any valid answer is a subset of the 4-core {g,...,l}
  // (Lemma 3); local search may legitimately stop at the inner K5.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto result = Solve(g, v('g'), 4);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, v('g'), 4));
  const auto four_core =
      ToSet({v('g'), v('h'), v('i'), v('j'), v('k'), v('l')});
  for (VertexId member : result->members) {
    EXPECT_TRUE(four_core.count(member) > 0);
  }
}

TEST_P(LocalCstStrategyTest, DisconnectedGraphStaysInComponent) {
  // Two K4s, no connection: a query in one must never see the other.
  GraphBuilder builder(8);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 4, v + 4);
    }
  }
  Graph g = builder.Build();
  const auto result = Solve(g, 0, 3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToSet(result->members), ToSet({0, 1, 2, 3}));
  // The Theorem-3 bound must not mis-prune disconnected graphs: global
  // excess is 12-8=4 => bound floor((1+sqrt(41))/2)=3, achievable here.
  EXPECT_TRUE(Solve(g, 4, 3).has_value());
}

TEST_P(LocalCstStrategyTest, BridgeVertexNeedsFallback) {
  // Query f in Figure 1 with k = 2: every early candidate set that
  // includes f's tail fails, exercising the global-fallback path.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const auto result = Solve(g, v('f'), 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(IsValidCommunity(g, result->members, v('f'), 2));
}

TEST_P(LocalCstStrategyTest, InfeasibleQueryReturnsNullAfterExhaustion) {
  // Star center has high degree but no 2-connected neighborhood.
  Graph g = gen::Star(30);
  EXPECT_FALSE(Solve(g, 0, 2).has_value());
}

TEST_P(LocalCstStrategyTest, AgreesWithGlobalOnRandomGraphs) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    Graph g = gen::ErdosRenyiGnp(60, 0.12, seed);
    for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 5) {
      for (uint32_t k = 1; k <= 8; ++k) {
        const auto local = Solve(g, v0, k);
        const auto global = GlobalCst(g, v0, k);
        ASSERT_EQ(local.has_value(), global.has_value())
            << "seed=" << seed << " v0=" << v0 << " k=" << k;
        if (local.has_value()) {
          EXPECT_TRUE(IsValidCommunity(g, local->members, v0, k));
          EXPECT_GE(local->min_degree, k);
          // The local answer is never larger than the maximal (global)
          // answer (Lemma 3: every solution is a subset of Ck).
          EXPECT_LE(local->members.size(), global->members.size());
        }
      }
    }
  }
}

TEST_P(LocalCstStrategyTest, AgreesWithGlobalOnLfr) {
  gen::LfrParams params;
  params.n = 400;
  params.min_degree = 4;
  params.max_degree = 30;
  params.min_community = 15;
  params.max_community = 80;
  params.seed = 2024;
  const gen::LfrGraph lfr = gen::Lfr(params);
  const Graph& g = lfr.graph;
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 29) {
    for (uint32_t k : {2u, 4u, 6u, 10u}) {
      const auto local = Solve(g, v0, k);
      const auto global = GlobalCst(g, v0, k);
      ASSERT_EQ(local.has_value(), global.has_value())
          << "v0=" << v0 << " k=" << k;
      if (local.has_value()) {
        EXPECT_TRUE(IsValidCommunity(g, local->members, v0, k));
      }
    }
  }
}

TEST_P(LocalCstStrategyTest, VisitedNeverExceedsEligibleVertices) {
  // n' <= |V>=k| (§4.2.3's tighter candidate bound).
  Graph g = gen::PowerLawGraph(500, 2.0, 2, 40, 99);
  const uint32_t k = 5;
  uint64_t eligible = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    eligible += g.Degree(v) >= k;
  }
  for (VertexId v0 = 0; v0 < g.NumVertices(); v0 += 61) {
    if (g.Degree(v0) < k) continue;
    EXPECT_LE(Solve(g, v0, k).telemetry.TotalVisited(), eligible);
  }
}

TEST_P(LocalCstStrategyTest, CoreNumbersPruneTheForcedFallback) {
  // K4 {0,2,3,4} holds the seed 0; vertex 1 hangs off 0 with four leaves.
  // Degree 5 passes Proposition 3 and makes 1 the first candidate under
  // every strategy and ordering, but its core number is 1: once in C it
  // can never reach induced degree 3, so the paper solver exhausts the
  // candidates and peels G[C]. With core numbers 1 is never a candidate.
  GraphBuilder builder(9);
  for (VertexId u : {0, 2, 3, 4}) {
    for (VertexId v : {0, 2, 3, 4}) {
      if (u < v) builder.AddEdge(u, v);
    }
  }
  for (VertexId v : {0, 5, 6, 7, 8}) builder.AddEdge(1, v);
  Graph g = builder.Build();
  const CoreDecomposition cores = ComputeCores(g);
  ASSERT_EQ(cores.core[1], 1u);

  const auto paper = Solve(g, 0, 3);
  ASSERT_TRUE(paper.has_value());
  EXPECT_TRUE(paper.telemetry.used_global_fallback);
  EXPECT_EQ(paper.telemetry.TotalVisited(), 5u);  // C = {0..4}, then the peel

  const auto pruned = Solve(g, 0, 3, cores.core);
  ASSERT_TRUE(pruned.has_value());
  EXPECT_FALSE(pruned.telemetry.used_global_fallback);
  EXPECT_EQ(pruned.telemetry.TotalVisited(), 4u);
  EXPECT_EQ(ToSet(pruned->members), ToSet({0, 2, 3, 4}));
  EXPECT_EQ(ToSet(pruned->members), ToSet(paper->members));
  EXPECT_EQ(pruned->min_degree, 3u);
  // Lemma 3 also answers a seed outside the k-core before any expansion.
  const auto outside = Solve(g, 1, 3, cores.core);
  EXPECT_EQ(outside.status, Termination::kNotExists);
  EXPECT_EQ(outside.telemetry.TotalVisited(), 0u);
}

TEST_P(LocalCstStrategyTest, RepeatedQueriesAreIndependent) {
  // The epoch-reset machinery must give identical answers across repeats
  // and across interleaved different queries.
  Graph g = gen::ErdosRenyiGnp(80, 0.1, 5);
  const GraphFacts facts = GraphFacts::Compute(g);
  std::optional<OrderedAdjacency> ordered;
  if (GetParam().ordered) ordered.emplace(g);
  LocalCstSolver solver(g, ordered ? &*ordered : nullptr, &facts);
  CstOptions options;
  options.strategy = GetParam().strategy;

  std::vector<SearchResult> first;
  for (VertexId v0 = 0; v0 < 20; ++v0) {
    first.push_back(solver.Solve(v0, 3, options));
  }
  for (int round = 0; round < 3; ++round) {
    for (VertexId v0 = 0; v0 < 20; ++v0) {
      const auto again = solver.Solve(v0, 3, options);
      ASSERT_EQ(again.has_value(), first[v0].has_value());
      if (again.has_value()) {
        EXPECT_EQ(ToSet(again->members), ToSet(first[v0]->members));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, LocalCstStrategyTest,
    ::testing::Values(Config{Strategy::kNaive, false},
                      Config{Strategy::kNaive, true},
                      Config{Strategy::kLG, false},
                      Config{Strategy::kLG, true},
                      Config{Strategy::kLI, false},
                      Config{Strategy::kLI, true}),
    ConfigName);

TEST(LocalCstLiTest, PaperExample7IntelligentSelection) {
  // With li selection and lowest-id tie-breaking, the query e / CST(3)
  // search finds {e,a,d,b,c} in 5 steps (Figure 4(b)).
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  CstOptions options;
  options.strategy = Strategy::kLI;
  const auto result = solver.Solve(v('e'), 3, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToSet(result->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  EXPECT_EQ(result.telemetry.TotalVisited(), 5u);
  EXPECT_FALSE(result.telemetry.used_global_fallback);
}

TEST(LocalCstNaiveTest, PaperExample7NaiveExhaustsCandidates) {
  // Naive FIFO selection admits f early and must exhaust all 12 eligible
  // vertices (V - {m,n}) before the global fallback resolves the query.
  Graph g = gen::PaperFigure1();
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  CstOptions options;
  options.strategy = Strategy::kNaive;
  const auto result = solver.Solve(v('e'), 3, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(ToSet(result->members),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
  EXPECT_EQ(result.telemetry.TotalVisited(), 12u);
  EXPECT_TRUE(result.telemetry.used_global_fallback);
}

TEST(LocalCstStatsTest, FallbackFlagFalseOnDirectHit) {
  Graph g = gen::Clique(10);
  const GraphFacts facts = GraphFacts::Compute(g);
  LocalCstSolver solver(g, nullptr, &facts);
  const auto result = solver.Solve(0, 4);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result.telemetry.used_global_fallback);
  // li stops as soon as δ(C) reaches 4
  EXPECT_EQ(result.telemetry.answer_size, 5u);
}

// Two K4s joined through vertex 8 (degree 3, core number 2): CstMulti
// over one seed in each can only fail. The paper solver walks through 8,
// connects the seeds and needs the G[C] peel to see the failure; the
// core-pruned solver never admits 8, exhausts with two fragments and
// answers kNotExists without entering the core-decomposition phase.
TEST(LocalCstMultiTest, CorePrunedSeedsInTwoCoreComponentsSkipThePeel) {
  GraphBuilder builder(10);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 4, v + 4);
    }
  }
  for (VertexId v : {3, 4, 9}) builder.AddEdge(8, v);
  Graph g = builder.Build();
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  const CoreDecomposition cores = ComputeCores(g);
  ASSERT_EQ(cores.core[8], 2u);
  const auto peel = static_cast<size_t>(obs::Phase::kCoreDecomposition);
  const std::vector<VertexId> seeds = {0, 5};

  LocalCstSolver paper(g, &ordered, &facts);
  const SearchResult paper_answer = paper.CstMulti(seeds, 3);
  EXPECT_EQ(paper_answer.status, Termination::kNotExists);
  EXPECT_TRUE(paper_answer.telemetry.used_global_fallback);
  EXPECT_EQ(paper_answer.telemetry.phases[peel].entered, 1u);

  LocalCstSolver pruned(g, &ordered, &facts, cores.core);
  const SearchResult pruned_answer = pruned.CstMulti(seeds, 3);
  EXPECT_EQ(pruned_answer.status, Termination::kNotExists);
  EXPECT_FALSE(pruned_answer.telemetry.used_global_fallback);
  EXPECT_EQ(pruned_answer.telemetry.phases[peel].entered, 0u);
  EXPECT_EQ(pruned_answer.telemetry.TotalVisited(), 8u);  // both K4s
  // Seeds in one component still early-succeed.
  const SearchResult together = pruned.CstMulti({0, 2}, 3);
  ASSERT_TRUE(together.Found());
  EXPECT_EQ(ToSet(together->members), ToSet({0, 1, 2, 3}));
}

// One engine serves both entry points: a one-seed CstMulti is Solve, down
// to the member order, the fallback flag and every per-phase counter.
TEST(LocalCstMultiTest, SingleSeedCstMultiIsSolve) {
  for (const testing::GraphCase& c : testing::PropertyGraphs()) {
    const GraphFacts facts = GraphFacts::Compute(c.graph);
    const OrderedAdjacency ordered(c.graph);
    const CoreDecomposition cores = ComputeCores(c.graph);
    for (const OrderedAdjacency* order :
         {&ordered, static_cast<const OrderedAdjacency*>(nullptr)}) {
      LocalCstSolver solver(c.graph, order, &facts);
      for (VertexId v = 0; v < c.graph.NumVertices(); ++v) {
        const uint32_t core = cores.core[v];
        for (const uint32_t k : {0u, 1u, 2u, 3u, core, core + 1}) {
          SCOPED_TRACE(c.label + (order != nullptr ? " ordered" : " plain") +
                       " v=" + std::to_string(v) + " k=" + std::to_string(k));
          const SearchResult solo = solver.Solve(v, k);
          const SearchResult multi = solver.CstMulti({v}, k);
          ASSERT_EQ(multi.status, solo.status);
          if (solo.has_value()) {
            EXPECT_EQ(multi->members, solo->members);
            EXPECT_EQ(multi->min_degree, solo->min_degree);
          }
          EXPECT_EQ(multi.telemetry.used_global_fallback,
                    solo.telemetry.used_global_fallback);
          for (size_t p = 0; p < obs::kNumPhases; ++p) {
            const obs::PhaseStats& a = multi.telemetry.phases[p];
            const obs::PhaseStats& b = solo.telemetry.phases[p];
            EXPECT_EQ(a.vertices_visited, b.vertices_visited) << "phase " << p;
            EXPECT_EQ(a.edges_scanned, b.edges_scanned) << "phase " << p;
            EXPECT_EQ(a.candidates_generated, b.candidates_generated)
                << "phase " << p;
            EXPECT_EQ(a.candidates_rejected, b.candidates_rejected)
                << "phase " << p;
          }
        }
      }
    }
  }
}

// Pinned digests: a 64-bit FNV-1a fold of every answer a solver gives over
// a fixed query sweep, recorded from the solver as it stands. The fold
// covers the status, the best community's members in order, δ, the
// fallback flag, the answer size and every per-phase counter, so any
// change to an answer, a member order or a counter changes a digest. A
// change that alters them on purpose must say so and record new values.
class Digest {
 public:
  void Fold(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xffu)) * 0x100000001b3u;
    }
  }

  void Fold(const SearchResult& result) {
    Fold(static_cast<uint64_t>(result.status));
    const Community& best = result.Best();
    Fold(best.members.size());
    for (VertexId v : best.members) Fold(v);
    Fold(best.min_degree);
    Fold(result.telemetry.used_global_fallback ? 1u : 0u);
    Fold(result.telemetry.answer_size);
    for (const obs::PhaseStats& phase : result.telemetry.phases) {
      Fold(phase.entered);
      Fold(phase.vertices_visited);
      Fold(phase.edges_scanned);
      Fold(phase.candidates_generated);
      Fold(phase.candidates_rejected);
      Fold(phase.budget_spent);
    }
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325u;
};

/// The sweep's graphs: the property zoo plus one LFR graph whose hubs give
/// long degree-sorted lists with the §4.3.2 break anywhere in them.
std::vector<testing::GraphCase> DigestGraphs() {
  std::vector<testing::GraphCase> cases = testing::PropertyGraphs();
  gen::LfrParams params;
  params.n = 400;
  params.min_degree = 4;
  params.max_degree = 30;
  params.min_community = 15;
  params.max_community = 80;
  params.seed = 2024;
  cases.push_back({"lfr_n400", gen::Lfr(params).graph});
  return cases;
}

struct DigestConfig {
  bool ordered;
  bool cores;
};

constexpr DigestConfig kDigestConfigs[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

std::string DigestHex(uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

// Solve over every vertex at k in {1, 2, 3, core - 1, core, core + 1}, then
// again under a work budget of 40 (the interrupted best-so-far answers):
// {naive, lg, li} x {ordered, plain} x {with, without core numbers}.
TEST(LocalCstDigestTest, SolveMatchesPinnedDigests) {
  constexpr Strategy kStrategies[] = {Strategy::kNaive, Strategy::kLG,
                                      Strategy::kLI};
  // [strategy][config], configs in kDigestConfigs order.
  constexpr uint64_t kPinned[3][4] = {
      {0xe38c04d1bb4d0298u, 0x267217c8693494e7u,
       0x1d151c64d4556cb3u, 0x3c3089a8635c3a34u},
      {0xae94a1368f8d00cdu, 0xb08b661dec333cfdu,
       0xacd143a72b4ce78bu, 0x1ebee0bf4a8da2ecu},
      {0x006994c106615ceau, 0x075fae3d9009a8b4u,
       0xd67736bdb9d0ebf0u, 0x4ac9e70fd994e9abu},
  };
  const std::vector<testing::GraphCase> graphs = DigestGraphs();
  for (size_t s = 0; s < 3; ++s) {
    for (size_t c = 0; c < 4; ++c) {
      const DigestConfig config = kDigestConfigs[c];
      Digest digest;
      for (const testing::GraphCase& gc : graphs) {
        const Graph& g = gc.graph;
        const GraphFacts facts = GraphFacts::Compute(g);
        const OrderedAdjacency ordered(g);
        const CoreDecomposition cores = ComputeCores(g);
        LocalCstSolver solver(
            g, config.ordered ? &ordered : nullptr, &facts,
            config.cores ? std::span<const uint32_t>(cores.core)
                         : std::span<const uint32_t>());
        CstOptions options;
        options.strategy = kStrategies[s];
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          const uint32_t core = cores.core[v];
          for (const uint32_t k : {1u, 2u, 3u, core - 1, core, core + 1}) {
            if (k > g.MaxDegree() + 1) continue;
            digest.Fold(solver.Solve(v, k, options));
            QueryLimits limits;
            limits.work_budget = 40;
            QueryGuard guard(limits);
            digest.Fold(solver.Solve(v, k, options, nullptr, &guard));
          }
        }
      }
      EXPECT_EQ(DigestHex(digest.value()), DigestHex(kPinned[s][c]))
          << StrategyName(kStrategies[s])
          << (config.ordered ? " ordered" : " plain")
          << (config.cores ? " with cores" : " without cores");
    }
  }
}

// CstMulti over seed pairs and triples of nearby ids (often in different
// k-core components, so every exit runs) and CsmMulti over the pairs,
// with and without a work budget.
TEST(LocalCstDigestTest, MultiMatchesPinnedDigests) {
  // Configs in kDigestConfigs order.
  constexpr uint64_t kPinned[4] = {0xb5e88fac8e3e8278u, 0xe2a398fe40200630u,
                                   0x6b08e459c1462b8eu, 0x09c01d9163322266u};
  const std::vector<testing::GraphCase> graphs = DigestGraphs();
  for (size_t c = 0; c < 4; ++c) {
    const DigestConfig config = kDigestConfigs[c];
    Digest digest;
    for (const testing::GraphCase& gc : graphs) {
      const Graph& g = gc.graph;
      const VertexId n = g.NumVertices();
      const GraphFacts facts = GraphFacts::Compute(g);
      const OrderedAdjacency ordered(g);
      const CoreDecomposition cores = ComputeCores(g);
      LocalCstSolver solver(
          g, config.ordered ? &ordered : nullptr, &facts,
          config.cores ? std::span<const uint32_t>(cores.core)
                       : std::span<const uint32_t>());
      for (VertexId v = 0; v + 13 < n; v += 3) {
        const std::vector<VertexId> pair = {v, v + 1};
        const std::vector<VertexId> triple = {v, v + 7, v + 13};
        for (const uint32_t k : {1u, 2u, 3u, 4u, cores.core[v]}) {
          digest.Fold(solver.CstMulti(pair, k));
          digest.Fold(solver.CstMulti(triple, k));
          QueryLimits limits;
          limits.work_budget = 60;
          QueryGuard guard(limits);
          digest.Fold(solver.CstMulti(triple, k, nullptr, &guard));
        }
        digest.Fold(solver.CsmMulti(pair));
        QueryLimits limits;
        limits.work_budget = 200;
        QueryGuard guard(limits);
        digest.Fold(solver.CsmMulti(triple, &guard));
      }
    }
    EXPECT_EQ(DigestHex(digest.value()), DigestHex(kPinned[c]))
        << (config.ordered ? "ordered" : "plain")
        << (config.cores ? " with cores" : " without cores");
  }
}

}  // namespace
}  // namespace locs
