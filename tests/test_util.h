// Shared helpers for the test suite: brute-force reference solvers (only
// feasible on tiny graphs), set utilities, the seeded property-graph zoo
// and the pinned-digest fold of solver answers.

#ifndef LOCS_TESTS_TEST_UTIL_H_
#define LOCS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/result.h"
#include "gen/barabasi.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
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
inline std::vector<GraphCase> DigestGraphs() {
  std::vector<GraphCase> cases = PropertyGraphs();
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

/// The digest as it is pinned: 0x and sixteen hex digits.
inline std::string DigestHex(uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
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
