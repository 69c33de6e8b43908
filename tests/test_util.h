// Shared helpers for the test suite: brute-force reference solvers (only
// feasible on tiny graphs) and set utilities.

#ifndef LOCS_TESTS_TEST_UTIL_H_
#define LOCS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

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
