// k-core decomposition and maximum cores (Definitions 2 and 3).
//
// The k-core of G is the largest subgraph whose vertices all have degree at
// least k inside it; maxcore(G, v) is the k-core containing v with maximal
// k. Both underlie the global-search solvers of §3 and the fallback step of
// the local-search framework (Proposition 4).

#ifndef LOCS_CORE_KCORE_H_
#define LOCS_CORE_KCORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/telemetry.h"

namespace locs {

/// Full core decomposition of a graph.
struct CoreDecomposition {
  /// core[v]: the largest k such that v belongs to the k-core.
  std::vector<uint32_t> core;
  /// Degeneracy of the graph: max over core[].
  uint32_t degeneracy = 0;
  /// Vertices in peeling order (non-decreasing core number) — the order in
  /// which the global greedy of §3.2 deletes vertices.
  std::vector<VertexId> peel_order;
};

/// Computes core numbers with the Batagelj–Zaversnik bucket algorithm in
/// O(|V| + |E|). When `phase` is non-null the peel's work is accumulated
/// into it: one vertices_visited per popped vertex and one edges_scanned
/// per directed neighbor inspection — exactly |V| and 2|E| on completion,
/// matching the historical up-front accounting of the global solvers.
CoreDecomposition ComputeCores(const Graph& graph,
                               obs::PhaseStats* phase = nullptr);

/// Members of the k-core of `graph` (possibly spanning several connected
/// components), derived from a precomputed decomposition.
std::vector<VertexId> KCoreMembers(const CoreDecomposition& cores,
                                   uint32_t k);

/// Connected component of `v0` within the k-core of `graph`, by one BFS
/// over the vertices with `core[w] >= k`, in BFS order. Empty when v0 is
/// not in the k-core. By Lemma 3 this is a (maximal) CST(k) solution.
/// `core` holds one core number per vertex: a CoreDecomposition's
/// `core` or a CoreIndex's `core_numbers().span()`.
std::vector<VertexId> KCoreComponentOf(const Graph& graph,
                                       std::span<const uint32_t> core,
                                       VertexId v0, uint32_t k);

/// Connected component of `v0` inside maxcore(G, v0) — by Lemma 4 the
/// (maximal) CSM solution. The achieved minimum degree equals core[v0].
std::vector<VertexId> MaxCoreComponentOf(const Graph& graph,
                                         std::span<const uint32_t> core,
                                         VertexId v0);

}  // namespace locs

#endif  // LOCS_CORE_KCORE_H_
