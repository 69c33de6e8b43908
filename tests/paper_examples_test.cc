// One test per worked example in the paper (Examples 1-9), all evaluated
// on the reconstructed Figure 1 graph. Deviations forced by internal
// inconsistencies of the paper are documented in gen/classic.h and
// asserted here as reconstructed.

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/bounds.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/lazy_bucket_queue.h"
#include "core/local_cst.h"
#include "gen/classic.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::BruteForceCsmGoodness;
using testing::ToSet;

class PaperExamplesTest : public ::testing::Test {
 protected:
  PaperExamplesTest() : g_(gen::PaperFigure1()) {}

  static VertexId V(char c) { return gen::Figure1Vertex(c); }
  static std::vector<VertexId> Set(const std::string& labels) {
    std::vector<VertexId> out;
    for (char c : labels) out.push_back(V(c));
    return out;
  }

  Graph g_;
};

TEST_F(PaperExamplesTest, Example1MinimumDegreeVsAverageDegree) {
  // δ(G[V1]) = 3 for V1 = {a,b,c,d,e}; including f drops δ to 1.
  EXPECT_EQ(MinDegreeOfInduced(g_, Set("abcde")), 3u);
  EXPECT_EQ(MinDegreeOfInduced(g_, Set("abcdef")), 1u);
  // Average degree prefers the merged set V1 ∪ {f} ∪ V2 over V1 alone —
  // the behaviour the paper argues against.
  const auto avg = [this](const std::vector<VertexId>& members) {
    const MappedSubgraph sub = InducedSubgraph(g_, members);
    return sub.graph.AverageDegree();
  };
  EXPECT_GT(avg(Set("abcdefghijkl")), avg(Set("abcde")));
  // V1 and V2 connect only through f (the weak link).
  EXPECT_FALSE(IsConnectedSubset(g_, Set("abcdeghijkl")));
  EXPECT_TRUE(IsConnectedSubset(g_, Set("abcdefghijkl")));
}

TEST_F(PaperExamplesTest, Example2GlobalSearchForJ) {
  // Greedy deletion answers the best community for j. (The paper's listed
  // V' = {g,h,i,j,k} omits l, contradicting its own Example 5; we follow
  // Example 5: the answer is the 4-core component {g..l}.)
  const Community best = GreedyGlobalCsm(g_, V('j'));
  EXPECT_EQ(best.min_degree, 4u);
  EXPECT_EQ(ToSet(best.members), ToSet(Set("ghijkl")));
  // m and n are among the first vertices the greedy removes: both have
  // degree <= 2 and survive in no 2-core... verify via core numbers.
  const CoreDecomposition cores = ComputeCores(g_);
  EXPECT_LE(cores.core[V('m')], 1u);
  EXPECT_LE(cores.core[V('n')], 1u);
}

TEST_F(PaperExamplesTest, Example3NonMonotonicity) {
  // S = {a,b,d,e} (a's closed neighborhood): δ = 2. Adding c raises δ to
  // 3; adding f lowers it to 1 — δ is not monotonic in the vertex set.
  EXPECT_EQ(MinDegreeOfInduced(g_, Set("abde")), 2u);
  EXPECT_EQ(MinDegreeOfInduced(g_, Set("abdec")), 3u);
  EXPECT_EQ(MinDegreeOfInduced(g_, Set("abdef")), 1u);
}

TEST_F(PaperExamplesTest, Example4CsmAndCstForA) {
  // CSM: H = {a,b,c,d,e} with δ = 3 and no better choice exists.
  EXPECT_EQ(BruteForceCsmGoodness(g_, V('a')), 3u);
  const Community best = *GlobalCsm(g_, V('a'));
  EXPECT_EQ(best.min_degree, 3u);
  EXPECT_EQ(ToSet(best.members), ToSet(Set("abcde")));
  // CST(3): still H. CST(2): multiple valid choices, including the
  // paper's {a,b,d}, {a,d,e}, {a,b,c,d,e}.
  for (const auto& labels : {"abd", "ade", "abcde"}) {
    EXPECT_TRUE(IsValidCommunity(g_, Set(labels), V('a'), 2)) << labels;
  }
}

TEST_F(PaperExamplesTest, Example5CoresAndMaxcore) {
  const CoreDecomposition cores = ComputeCores(g_);
  // 3-core = {a..e, g..l}; 4-core = maximum core = {g..l}.
  EXPECT_EQ(ToSet(KCoreMembers(cores, 3)), ToSet(Set("abcdeghijkl")));
  EXPECT_EQ(ToSet(KCoreMembers(cores, 4)), ToSet(Set("ghijkl")));
  EXPECT_EQ(cores.degeneracy, 4u);
  // maxcore(G, e) = the subgraph induced by {a,b,c,d,e}.
  EXPECT_EQ(ToSet(MaxCoreComponentOf(g_, cores.core, V('e'))),
            ToSet(Set("abcde")));
}

TEST_F(PaperExamplesTest, Example6AdmissibleSets) {
  // CSM for e: m* = 3 with the unique H* = {a..e} — the admissible set.
  EXPECT_EQ(BruteForceCsmGoodness(g_, V('e')), 3u);
  EXPECT_EQ(ToSet(GlobalCsm(g_, V('e'))->members), ToSet(Set("abcde")));
  // CST(2) for e: the maximal answer (hence admissible set) is V-{m,n}.
  const auto cst2 = GlobalCst(g_, V('e'), 2);
  ASSERT_TRUE(cst2.has_value());
  EXPECT_EQ(ToSet(cst2->members), ToSet(Set("abcdefghijkl")));
  // m and n belong to no CST(2) answer: every H containing them fails.
  EXPECT_FALSE(GlobalCst(g_, V('m'), 2).has_value());
  EXPECT_FALSE(GlobalCst(g_, V('n'), 2).has_value());
}

TEST_F(PaperExamplesTest, Example7NaiveVsIntelligentSelection) {
  const GraphFacts facts = GraphFacts::Compute(g_);
  LocalCstSolver solver(g_, nullptr, &facts);
  // Naive FIFO: enqueues f early (degree 3 >= k), never qualifies, and
  // exhausts all 12 eligible vertices before the fallback answers.
  CstOptions naive;
  naive.strategy = Strategy::kNaive;
  auto result = solver.Solve(V('e'), 3, naive);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result.telemetry.TotalVisited(), 12u);
  EXPECT_TRUE(result.telemetry.used_global_fallback);
  // Intelligent (li): 5 steps, exactly the Figure 4(b) trace.
  CstOptions li;
  li.strategy = Strategy::kLI;
  result = solver.Solve(V('e'), 3, li);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result.telemetry.TotalVisited(), 5u);
  EXPECT_FALSE(result.telemetry.used_global_fallback);
  EXPECT_EQ(ToSet(result->members), ToSet(Set("abcde")));
}

TEST_F(PaperExamplesTest, Example8HardnessOfSelection) {
  // Even li can be forced through f (it ties with a,c,d at incidence 1
  // when C = {e}); whatever order ties resolve in, correctness holds via
  // the fallback — verified by solving from every vertex at every k.
  const GraphFacts facts = GraphFacts::Compute(g_);
  LocalCstSolver solver(g_, nullptr, &facts);
  for (VertexId v0 = 0; v0 < g_.NumVertices(); ++v0) {
    for (uint32_t k = 1; k <= 5; ++k) {
      const auto local = solver.Solve(v0, k);
      const auto global = GlobalCst(g_, v0, k);
      EXPECT_EQ(local.has_value(), global.has_value())
          << "v0=" << v0 << " k=" << k;
    }
  }
}

TEST_F(PaperExamplesTest, Example9LiBucketState) {
  // After C = {e, a}: f(b) = f(c) = f(f) = 1 and f(d) = 2 — d pops next.
  // Reproduced through the public solver: with query e and k = 3, li's
  // third pick is d (Figure 4(b) step 3); asserted indirectly through the
  // 5-step trace of Example 7. Here we assert the pop order directly on
  // the Figure-5 structure: d first, then the key-1 vertices in the order
  // they were discovered.
  LazyBucketQueue buckets(g_.NumVertices(), g_.MaxDegree(),
                          2 * g_.NumEdges());
  buckets.NewEpoch();
  std::vector<VertexId> discovered;
  auto add_neighbors = [&](VertexId v, const std::vector<VertexId>& in_c) {
    for (VertexId w : g_.Neighbors(v)) {
      bool is_member = false;
      for (VertexId m : in_c) is_member |= m == w;
      if (is_member) continue;
      if (buckets.IncrementOrInsert(w, [] { return true; })) {
        discovered.push_back(w);
      }
    }
  };
  add_neighbors(V('e'), {V('e'), V('a')});
  add_neighbors(V('a'), {V('e'), V('a')});
  EXPECT_EQ(ToSet(discovered), ToSet(Set("bcdf")));
  EXPECT_EQ(buckets.PopMax(), V('d'));
  for (VertexId w : discovered) {
    if (w != V('d')) {
      EXPECT_EQ(buckets.PopMax(), w);
    }
  }
  EXPECT_TRUE(buckets.Empty());
}

TEST_F(PaperExamplesTest, Figure2ExponentialSolutionCount) {
  // The star of Figure 2: m*(G, center) = 1 and any edge answers — the
  // reason both problems return a single solution.
  Graph star = gen::Star(12);
  EXPECT_EQ(GlobalCsm(star, 0)->min_degree, 1u);
  const GraphFacts facts = GraphFacts::Compute(star);
  LocalCstSolver solver(star, nullptr, &facts);
  const auto cst1 = solver.Solve(0, 1);
  ASSERT_TRUE(cst1.has_value());
  EXPECT_EQ(cst1->members.size(), 2u);  // one edge suffices
}

TEST_F(PaperExamplesTest, Theorem3BoundOnFigure1) {
  // |E| = 26, |V| = 14 -> bound 5; all m* values are <= 4.
  EXPECT_EQ(MStarUpperBound(g_), 5u);
  for (VertexId v0 = 0; v0 < g_.NumVertices(); ++v0) {
    EXPECT_LE(GlobalCsm(g_, v0)->min_degree, 5u);
  }
}

}  // namespace
}  // namespace locs
