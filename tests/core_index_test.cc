// Tests for the core-number index (CoreIndex): the maximal CST / CSM
// answers read off its core numbers (KCoreComponentOf over
// core_numbers()) must match the global solvers exactly, for every vertex
// and every k, across graph families; the core forest must name each
// component of `core >= k` with its size and least core number, and its
// component sizes must be the CSM answer sizes.

#include "core/core_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/global.h"
#include "core/kcore.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/planted.h"
#include "graph/builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace locs {
namespace {

using testing::ToSet;

void ExpectMatchesGlobal(const Graph& g) {
  const CoreIndex index(g);
  const std::span<const uint32_t> core = index.core_numbers().span();
  ASSERT_EQ(core.size(), g.NumVertices());
  for (VertexId v0 = 0; v0 < g.NumVertices(); ++v0) {
    const Community expect_csm = *GlobalCsm(g, v0);
    ASSERT_EQ(index.CoreNumber(v0), expect_csm.min_degree) << "v0=" << v0;
    ASSERT_EQ(ToSet(MaxCoreComponentOf(g, core, v0)),
              ToSet(expect_csm.members))
        << "v0=" << v0;
    ASSERT_EQ(index.ComponentSize(v0), expect_csm.members.size())
        << "v0=" << v0;
    for (uint32_t k = 0; k <= index.CoreNumber(v0) + 1; ++k) {
      const auto expect = GlobalCst(g, v0, k);
      const auto got = KCoreComponentOf(g, core, v0, k);
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
  const Graph g = builder.Build();
  ExpectMatchesGlobal(g);
  // Two 3-cores of 4 each, not one of 8; the K2 and the isolated
  // vertices are their own components.
  const CoreIndex index(g);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(index.ComponentSize(v), 4u);
  EXPECT_EQ(index.ComponentSize(8), 2u);
  EXPECT_EQ(index.ComponentSize(9), 2u);
  EXPECT_EQ(index.ComponentSize(10), 1u);
  EXPECT_EQ(index.ComponentSize(11), 1u);
}

TEST(CoreIndexTest, EmptyAndSingleton) {
  const CoreIndex empty(Graph{});
  EXPECT_EQ(empty.Degeneracy(), 0u);
  EXPECT_TRUE(empty.node_of().empty());
  EXPECT_TRUE(empty.forest().empty());
  Graph singleton = BuildGraph(1, {});
  const CoreIndex index(singleton);
  EXPECT_EQ(index.CoreNumber(0), 0u);
  EXPECT_EQ(MaxCoreComponentOf(singleton, index.core_numbers().span(), 0),
            std::vector<VertexId>{0});
  EXPECT_TRUE(index.HasCst(0, 0));
  EXPECT_FALSE(index.HasCst(0, 1));
  EXPECT_EQ(index.ComponentSize(0), 1u);
}

/// Every vertex's stored component size is the size of its CSM answer,
/// v's component of `core >= core(v)`.
void ExpectComponentSizes(const Graph& g) {
  const CoreIndex index(g);
  ASSERT_EQ(index.node_of().size(), g.NumVertices());
  const std::span<const uint32_t> core = index.core_numbers().span();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(index.ComponentSize(v), MaxCoreComponentOf(g, core, v).size())
        << "v=" << v;
  }
}

TEST(CoreIndexTest, ComponentSizeIsTheCsmAnswerSize) {
  for (const testing::GraphCase& c : testing::PropertyGraphs()) {
    SCOPED_TRACE(c.label);
    ExpectComponentSizes(c.graph);
  }
  gen::LfrParams params;
  params.n = 600;
  params.min_degree = 3;
  params.max_degree = 25;
  params.min_community = 12;
  params.max_community = 60;
  params.seed = 11;
  SCOPED_TRACE("lfr_n600");
  ExpectComponentSizes(gen::Lfr(params).graph);
}

/// The core forest against brute force. For every k and every vertex v
/// with core(v) >= k, ComponentNode(v, k) must carry the size and least
/// core number of KCoreComponentOf(g, core, v, k), every member of that
/// component must share the node, and no other component may; so two
/// vertices share a node at k iff one's BFS reaches the other. Every walk
/// from a vertex's node to its root takes at most δ* + 1 nodes, and
/// CommonNode's level is the largest k at which sampled seed sets share a
/// node (kNoNode iff they span several components of G).
void ExpectForestMatchesBruteForce(const Graph& g) {
  const CoreIndex index(g);
  const std::span<const uint32_t> core = index.core_numbers().span();
  const VertexId n = g.NumVertices();
  ASSERT_LE(index.forest().size(), n);
  for (uint32_t k = 0; k <= index.Degeneracy(); ++k) {
    std::vector<bool> done(n, false);
    std::vector<bool> node_used(index.forest().size(), false);
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] < k || done[v]) continue;
      const std::vector<VertexId> component = KCoreComponentOf(g, core, v, k);
      uint32_t least = core[v];
      for (const VertexId u : component) least = std::min(least, core[u]);
      const uint32_t node = index.ComponentNode(v, k);
      ASSERT_LT(node, index.forest().size());
      ASSERT_FALSE(node_used[node]) << "v=" << v << " k=" << k;
      node_used[node] = true;
      ASSERT_EQ(index.forest()[node].size, component.size())
          << "v=" << v << " k=" << k;
      ASSERT_EQ(index.forest()[node].level, least) << "v=" << v << " k=" << k;
      for (const VertexId u : component) {
        done[u] = true;
        ASSERT_EQ(index.ComponentNode(u, k), node)
            << "u=" << u << " v=" << v << " k=" << k;
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(index.forest()[index.node_of()[v]].level, core[v]) << "v=" << v;
    uint32_t depth = 1;
    for (uint32_t node = index.node_of()[v];
         index.forest()[node].parent != CoreIndex::kNoNode;
         node = index.forest()[node].parent) {
      ++depth;
    }
    ASSERT_LE(depth, index.Degeneracy() + 1) << "v=" << v;
    ASSERT_EQ(index.ComponentSize(v), MaxCoreComponentOf(g, core, v).size())
        << "v=" << v;
  }
  // Seed pairs and triples: the deepest shared node by brute force over k.
  Rng rng(n + 17);
  for (int trial = 0; trial < 200 && n > 0; ++trial) {
    std::vector<VertexId> seeds;
    for (size_t i = 0; i < 2 + static_cast<size_t>(trial % 2); ++i) {
      seeds.push_back(static_cast<VertexId>(rng.Below(n)));
    }
    uint32_t least = core[seeds[0]];
    for (const VertexId s : seeds) least = std::min(least, core[s]);
    std::optional<uint32_t> shared;
    for (uint32_t k = least + 1; k-- > 0 && !shared.has_value();) {
      const std::vector<VertexId> component =
          KCoreComponentOf(g, core, seeds[0], k);
      const std::set<VertexId> members(component.begin(), component.end());
      if (std::all_of(seeds.begin(), seeds.end(),
                      [&](VertexId s) { return members.count(s) > 0; })) {
        shared = k;
      }
    }
    const uint32_t common = index.CommonNode(seeds);
    if (!shared.has_value()) {
      EXPECT_EQ(common, CoreIndex::kNoNode);
      continue;
    }
    ASSERT_NE(common, CoreIndex::kNoNode);
    EXPECT_EQ(index.forest()[common].level, *shared);
    EXPECT_EQ(common, index.ComponentNode(seeds[0], *shared));
  }
}

TEST(CoreIndexTest, ForestMatchesBruteForce) {
  {
    SCOPED_TRACE("paper_figure1");
    ExpectForestMatchesBruteForce(gen::PaperFigure1());
  }
  for (const testing::GraphCase& c : testing::PropertyGraphs()) {
    SCOPED_TRACE(c.label);
    ExpectForestMatchesBruteForce(c.graph);
  }
  for (const uint64_t seed : {5u, 9u}) {
    gen::LfrParams params;
    params.n = 2000;
    params.seed = seed;
    SCOPED_TRACE("lfr_n2000_s" + std::to_string(seed));
    ExpectForestMatchesBruteForce(gen::Lfr(params).graph);
  }
}

TEST(CoreIndexTest, ForestOfDisconnectedGraph) {
  // Two K4 (3-cores), a K2 and two isolated vertices: five roots, one
  // node each, and no common node across them.
  GraphBuilder builder(12);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 4, v + 4);
    }
  }
  builder.AddEdge(8, 9);
  const Graph g = builder.Build();
  ExpectForestMatchesBruteForce(g);
  const CoreIndex index(g);
  ASSERT_EQ(index.forest().size(), 5u);
  for (const CoreForestNode& node : index.forest()) {
    EXPECT_EQ(node.parent, CoreIndex::kNoNode);
  }
  EXPECT_EQ(index.CommonNode(std::vector<VertexId>{0, 3}), index.node_of()[0]);
  EXPECT_EQ(index.CommonNode(std::vector<VertexId>{0, 4}), CoreIndex::kNoNode);
  EXPECT_EQ(index.CommonNode(std::vector<VertexId>{10, 11}),
            CoreIndex::kNoNode);
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
  const std::span<const uint32_t> core = index.core_numbers().span();
  EXPECT_EQ(index.Degeneracy(), *std::max_element(core.begin(), core.end()));
  for (VertexId v0 = 0; v0 < lfr.graph.NumVertices(); v0 += 41) {
    const Community expect = *GlobalCsm(lfr.graph, v0);
    EXPECT_EQ(index.CoreNumber(v0), expect.min_degree);
    EXPECT_EQ(ToSet(MaxCoreComponentOf(lfr.graph, core, v0)),
              ToSet(expect.members));
    for (uint32_t k : {1u, 3u, 6u}) {
      const auto got = KCoreComponentOf(lfr.graph, core, v0, k);
      const auto want = GlobalCst(lfr.graph, v0, k);
      ASSERT_EQ(!got.empty(), want.has_value());
      if (want.has_value()) {
        EXPECT_EQ(ToSet(got), ToSet(want->members));
      }
    }
  }
}

}  // namespace
}  // namespace locs
