// Tests for the core-hierarchy index (CoreIndex): output-sensitive CST /
// CSM answers must match the global solvers exactly, for every vertex and
// every k, across graph families.

#include "core/core_index.h"

#include <gtest/gtest.h>

#include "core/global.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/planted.h"
#include "graph/builder.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::ToSet;

void ExpectMatchesGlobal(const Graph& g) {
  const CoreIndex index(g);
  for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
    const Community expect_csm = *GlobalCsm(g, v0);
    const Community got_csm = index.Csm(v0);
    ASSERT_EQ(got_csm.min_degree, expect_csm.min_degree) << "v0=" << v0;
    ASSERT_EQ(ToSet(got_csm.members), ToSet(expect_csm.members))
        << "v0=" << v0;
    for (uint32_t k = 0; k <= index.CoreNumber(v0) + 1; ++k) {
      const auto expect = GlobalCst(g, v0, k);
      const auto got = index.CstMembers(v0, k);
      ASSERT_EQ(!got.empty(), expect.has_value())
          << "v0=" << v0 << " k=" << k;
      ASSERT_EQ(index.HasCst(v0, k), expect.has_value());
      if (expect.has_value()) {
        ASSERT_EQ(ToSet(got), ToSet(expect->members))
            << "v0=" << v0 << " k=" << k;
      }
    }
  }
}

TEST(CoreIndexTest, PaperFigure1) {
  ExpectMatchesGlobal(gen::PaperFigure1());
}

TEST(CoreIndexTest, ClassicFamilies) {
  ExpectMatchesGlobal(gen::Clique(9));
  ExpectMatchesGlobal(gen::Cycle(12));
  ExpectMatchesGlobal(gen::Star(11));
  ExpectMatchesGlobal(gen::Barbell(5, 3));
  ExpectMatchesGlobal(gen::Grid(4, 6));
  ExpectMatchesGlobal(gen::CompleteBipartite(3, 5));
  ExpectMatchesGlobal(gen::Path(7));
}

TEST(CoreIndexTest, DisconnectedGraph) {
  GraphBuilder builder(12);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 4, v + 4);
    }
  }
  builder.AddEdge(8, 9);  // plus two isolated vertices 10, 11
  ExpectMatchesGlobal(builder.Build());
}

TEST(CoreIndexTest, EmptyAndSingleton) {
  const CoreIndex empty(Graph{});
  EXPECT_EQ(empty.Degeneracy(), 0u);
  Graph singleton = BuildGraph(1, {});
  const CoreIndex index(singleton);
  EXPECT_EQ(index.CoreNumber(0), 0u);
  EXPECT_EQ(index.Csm(0).members, std::vector<VertexId>{0});
  EXPECT_TRUE(index.HasCst(0, 0));
  EXPECT_FALSE(index.HasCst(0, 1));
}

/// A 2L-cycle x_0 y_0 x_1 y_1 ... x_{L-1} y_{L-1} labelled so that the
/// build meets every same-level merge in its worst order. Every vertex
/// has core number 2, and the build visits one level's vertices in peel
/// order, which breaks ties by ascending id: x_0, x_1, ... (ids 0 to
/// L-1), then the y's (ids 2L-1 down to L). x_i's ascending neighbor list
/// is [y_i, y_{i-1}]: it first joins its partner y_i in a fresh node,
/// then meets the growing component through y_{i-1}. Both sides then own
/// a node at level 2, and the fold must move the pair's two children, not
/// the component's O(i).
Graph AdversarialFoldCycle(VertexId pairs) {
  const auto x = [](VertexId i) { return i; };
  const auto y = [pairs](VertexId i) { return 2 * pairs - 1 - i; };
  GraphBuilder builder(2 * pairs);
  for (VertexId i = 0; i < pairs; ++i) {
    builder.AddEdge(x(i), y(i));
    builder.AddEdge(x(i), y(i == 0 ? pairs - 1 : i - 1));
  }
  return builder.Build();
}

TEST(CoreIndexTest, SameLevelFoldsMoveNLogNChildren) {
  const Graph graph = AdversarialFoldCycle(2048);
  const uint64_t n = graph.NumVertices();
  CoreIndex::BuildStats stats;
  const CoreIndex index(graph, &stats);
  uint64_t log_n = 0;
  while ((uint64_t{1} << log_n) < n) ++log_n;
  // The pattern does fold once per pair; folding the component into
  // each new pair's node instead moves about n^2/4 children.
  EXPECT_GE(stats.folds, n / 2 - 2);
  EXPECT_LE(stats.child_moves, n * log_n);
  // One component of the 2-core, whatever the fold order.
  EXPECT_EQ(index.CstMembers(0, 2).size(), n);
  ExpectMatchesGlobal(AdversarialFoldCycle(40));
}

class CoreIndexRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreIndexRandomTest, MatchesGlobalOnGnp) {
  ExpectMatchesGlobal(gen::ErdosRenyiGnp(70, 0.1, GetParam()));
}

TEST_P(CoreIndexRandomTest, MatchesGlobalOnPlanted) {
  const gen::PlantedGraph planted =
      gen::PlantedPartition(4, 15, 0.5, 0.02, GetParam() + 99);
  ExpectMatchesGlobal(planted.graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreIndexRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(CoreIndexTest, LfrSpotChecks) {
  gen::LfrParams params;
  params.n = 600;
  params.min_degree = 3;
  params.max_degree = 25;
  params.min_community = 12;
  params.max_community = 60;
  params.seed = 7;
  const gen::LfrGraph lfr = gen::Lfr(params);
  const CoreIndex index(lfr.graph);
  for (VertexId v0 = 0; v0 < lfr.graph.NumVertices(); v0 += 41) {
    const Community expect = *GlobalCsm(lfr.graph, v0);
    EXPECT_EQ(index.Csm(v0).min_degree, expect.min_degree);
    EXPECT_EQ(ToSet(index.Csm(v0).members), ToSet(expect.members));
    for (uint32_t k : {1u, 3u, 6u}) {
      const auto got = index.CstMembers(v0, k);
      const auto want = GlobalCst(lfr.graph, v0, k);
      ASSERT_EQ(!got.empty(), want.has_value());
      if (want.has_value()) {
        EXPECT_EQ(ToSet(got), ToSet(want->members));
      }
    }
  }
  // The merge tree stays linear in the vertex count.
  EXPECT_LE(index.NumTreeNodes(), 2 * lfr.graph.NumVertices() + 1);
}

}  // namespace
}  // namespace locs
