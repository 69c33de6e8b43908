// Shared helpers for the test suite: brute-force reference solvers (only
// feasible on tiny graphs), set utilities and the seeded property-graph
// zoo.

#ifndef LOCS_TESTS_TEST_UTIL_H_
#define LOCS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gen/barabasi.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "graph/types.h"

namespace locs::testing {

/// Sorted copy of a vertex set for order-insensitive comparison.
inline std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Converts to std::set for readable gtest failures.
inline std::set<VertexId> ToSet(const std::vector<VertexId>& v) {
  return {v.begin(), v.end()};
}

struct GraphCase {
  std::string label;
  Graph graph;
};

/// The seeded graph zoo: three families (Erdős–Rényi, Barabási–Albert,
/// planted partition) × three seeds. Sizes are small enough that a suite
/// over every vertex stays sub-second but large enough that expansion,
/// candidate generation, and the global fallback all genuinely run.
inline std::vector<GraphCase> PropertyGraphs() {
  std::vector<GraphCase> cases;
  for (const uint64_t seed : {11u, 42u, 77u}) {
    const std::string s = "_s" + std::to_string(seed);
    cases.push_back(
        {"gnp_n120_p0.06" + s, gen::ErdosRenyiGnp(120, 0.06, seed)});
    cases.push_back(
        {"ba_n150_m3" + s, gen::BarabasiAlbert(150, 3, seed)});
    cases.push_back({"planted_4x30" + s,
                     gen::PlantedPartition(4, 30, 0.30, 0.02, seed).graph});
  }
  return cases;
}

/// Brute force m*(G, v0): the maximum over all connected subsets H
/// containing v0 of δ(G[H]). Enumerate all 2^(n-1) subsets — graphs must
/// be tiny (n <= ~20).
inline uint32_t BruteForceCsmGoodness(const Graph& graph, VertexId v0) {
  const VertexId n = graph.NumVertices();
  uint32_t best = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if ((mask & (uint64_t{1} << v0)) == 0) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (uint64_t{1} << v)) members.push_back(v);
    }
    if (!IsConnectedSubset(graph, members)) continue;
    best = std::max(best, MinDegreeOfInduced(graph, members));
  }
  return best;
}

/// Brute force smallest CST(k) answer size (0 when infeasible).
inline size_t BruteForceMcstSize(const Graph& graph, VertexId v0,
                                 uint32_t k) {
  const VertexId n = graph.NumVertices();
  size_t best = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if ((mask & (uint64_t{1} << v0)) == 0) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (uint64_t{1} << v)) members.push_back(v);
    }
    if (best != 0 && members.size() >= best) continue;
    if (!IsConnectedSubset(graph, members)) continue;
    if (MinDegreeOfInduced(graph, members) >= k) best = members.size();
  }
  return best;
}

}  // namespace locs::testing

#endif  // LOCS_TESTS_TEST_UTIL_H_
