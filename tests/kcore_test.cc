// Tests for k-core decomposition and maxcore extraction.

#include "core/kcore.h"

#include <gtest/gtest.h>

#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace locs {
namespace {

using testing::Sorted;
using testing::ToSet;

/// Reference core decomposition: repeated linear scans (O(n^2), tiny
/// graphs only).
std::vector<uint32_t> NaiveCores(const Graph& g) {
  const VertexId n = g.NumVertices();
  std::vector<uint32_t> core(n, 0);
  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> deg(n);
  for (VertexId v = 0; v < n; ++v) deg[v] = g.Degree(v);
  uint32_t current = 0;
  for (VertexId removed = 0; removed < n; ++removed) {
    VertexId best = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v] && (best == kInvalidVertex || deg[v] < deg[best])) {
        best = v;
      }
    }
    current = std::max(current, deg[best]);
    core[best] = current;
    alive[best] = 0;
    for (VertexId w : g.Neighbors(best)) {
      if (alive[w]) --deg[w];
    }
  }
  return core;
}

TEST(KCoreTest, CliqueCores) {
  Graph g = gen::Clique(7);
  const CoreDecomposition cores = ComputeCores(g);
  EXPECT_EQ(cores.degeneracy, 6u);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(cores.core[v], 6u);
}

TEST(KCoreTest, CycleCores) {
  Graph g = gen::Cycle(10);
  const CoreDecomposition cores = ComputeCores(g);
  EXPECT_EQ(cores.degeneracy, 2u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(cores.core[v], 2u);
}

TEST(KCoreTest, StarCores) {
  Graph g = gen::Star(12);
  const CoreDecomposition cores = ComputeCores(g);
  EXPECT_EQ(cores.degeneracy, 1u);
  for (VertexId v = 0; v < 12; ++v) EXPECT_EQ(cores.core[v], 1u);
}

TEST(KCoreTest, PathEndpoints) {
  Graph g = gen::Path(6);
  const CoreDecomposition cores = ComputeCores(g);
  EXPECT_EQ(cores.degeneracy, 1u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(cores.core[v], 1u);
}

TEST(KCoreTest, EmptyAndSingleton) {
  EXPECT_EQ(ComputeCores(Graph()).degeneracy, 0u);
  Graph singleton = BuildGraph(1, {});
  const CoreDecomposition cores = ComputeCores(singleton);
  EXPECT_EQ(cores.degeneracy, 0u);
  EXPECT_EQ(cores.core[0], 0u);
}

TEST(KCoreTest, PaperFigure1Cores) {
  // Example 5: 3-core = {a..e, g..l}; 4-core = {g..l}; f, m, n below.
  Graph g = gen::PaperFigure1();
  const CoreDecomposition cores = ComputeCores(g);
  auto v = [](char c) { return gen::Figure1Vertex(c); };
  for (char c : {'a', 'b', 'c', 'd', 'e'}) EXPECT_EQ(cores.core[v(c)], 3u);
  for (char c : {'g', 'h', 'i', 'j', 'k', 'l'}) {
    EXPECT_EQ(cores.core[v(c)], 4u) << c;
  }
  EXPECT_LT(cores.core[v('f')], 3u);
  EXPECT_LE(cores.core[v('m')], 1u);
  EXPECT_LE(cores.core[v('n')], 1u);
  EXPECT_EQ(cores.degeneracy, 4u);

  EXPECT_EQ(ToSet(KCoreMembers(cores, 4)),
            ToSet({v('g'), v('h'), v('i'), v('j'), v('k'), v('l')}));
  // maxcore(G, e) = {a,b,c,d,e} (Example 5).
  EXPECT_EQ(ToSet(MaxCoreComponentOf(g, cores.core, v('e'))),
            ToSet({v('a'), v('b'), v('c'), v('d'), v('e')}));
}

TEST(KCoreTest, PeelOrderIsNonDecreasingInCore) {
  Graph g = gen::Barbell(5, 3);
  const CoreDecomposition cores = ComputeCores(g);
  ASSERT_EQ(cores.peel_order.size(), g.NumVertices());
  // Peeling never removes a vertex whose final core number is below the
  // current level once that level has been reached.
  uint32_t level = 0;
  for (VertexId v : cores.peel_order) {
    EXPECT_GE(cores.core[v], level);
    level = std::max(level, cores.core[v]);
  }
}

TEST(KCoreTest, KCoreComponentIsValidCst) {
  Graph g = gen::Barbell(5, 2);
  const CoreDecomposition cores = ComputeCores(g);
  const std::vector<VertexId> comp = KCoreComponentOf(g, cores.core, 0, 4);
  ASSERT_FALSE(comp.empty());
  EXPECT_TRUE(IsValidCommunity(g, comp, 0, 4));
  EXPECT_EQ(comp.size(), 5u);  // the left K5 only
}

TEST(KCoreTest, KCoreComponentEmptyWhenOutside) {
  Graph g = gen::Barbell(5, 2);
  const CoreDecomposition cores = ComputeCores(g);
  // A bridge vertex has core 1: no 4-core component for it.
  EXPECT_TRUE(KCoreComponentOf(g, cores.core, 5, 4).empty());
}

class KCoreRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KCoreRandomTest, MatchesNaiveReference) {
  Graph g = gen::ErdosRenyiGnp(40, 0.15, GetParam());
  const CoreDecomposition fast = ComputeCores(g);
  const std::vector<uint32_t> slow = NaiveCores(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(fast.core[v], slow[v]) << "vertex " << v;
  }
}

TEST_P(KCoreRandomTest, KCoreIsMaximalAndQualified) {
  Graph g = gen::ErdosRenyiGnp(60, 0.1, GetParam() + 1000);
  const CoreDecomposition cores = ComputeCores(g);
  for (uint32_t k = 1; k <= cores.degeneracy; ++k) {
    const std::vector<VertexId> members = KCoreMembers(cores, k);
    if (members.empty()) continue;
    // Every member has >= k neighbors within the k-core.
    std::vector<uint8_t> in(g.NumVertices(), 0);
    for (VertexId v : members) in[v] = 1;
    for (VertexId v : members) {
      uint32_t deg = 0;
      for (VertexId w : g.Neighbors(v)) deg += in[w];
      EXPECT_GE(deg, k);
    }
    // Maximality: no vertex outside has >= k neighbors inside a k-core
    // after augmenting... (sufficient check: peeling a vertex set keeps
    // the k-core unique, so adding any excluded vertex must violate the
    // degree constraint somewhere; verify the direct condition instead:
    // iteratively adding excluded vertices with >= k inside-neighbors must
    // reach a fixpoint equal to the k-core itself).
    bool grew = true;
    while (grew) {
      grew = false;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (in[v]) continue;
        uint32_t deg = 0;
        for (VertexId w : g.Neighbors(v)) deg += in[w];
        if (deg >= k) {
          in[v] = 1;
          grew = true;
        }
      }
    }
    // The grown set may violate the k-core property for the added
    // vertices' *own* degree only if the original was not maximal; verify
    // no strictly larger qualified set exists by peeling the grown set.
    std::vector<VertexId> grown;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (in[v]) grown.push_back(v);
    }
    // Peel grown down to its k-core: it must equal `members`.
    bool removed = true;
    while (removed) {
      removed = false;
      std::vector<uint8_t> in2(g.NumVertices(), 0);
      for (VertexId v : grown) in2[v] = 1;
      std::vector<VertexId> next;
      for (VertexId v : grown) {
        uint32_t deg = 0;
        for (VertexId w : g.Neighbors(v)) deg += in2[w];
        if (deg >= k) {
          next.push_back(v);
        } else {
          removed = true;
        }
      }
      grown = next;
    }
    EXPECT_EQ(Sorted(grown), Sorted(members)) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCoreRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 99));

}  // namespace
}  // namespace locs
