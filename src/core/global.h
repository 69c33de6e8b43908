// Global-search solvers for CST and CSM (§3 of the paper).
//
// Both visit every vertex and edge of the graph: CST peels all vertices of
// degree < k and returns the query vertex's component of the k-core
// (Lemma 3); CSM greedily deletes minimum-degree vertices and returns the
// best intermediate component containing the query vertex (the [5]
// algorithm, equivalent to the maxcore of Lemma 4).

#ifndef LOCS_CORE_GLOBAL_H_
#define LOCS_CORE_GLOBAL_H_

#include "core/common.h"
#include "core/kcore.h"
#include "core/result.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "util/guard.h"

namespace locs {

/// Global CST(k): the connected component of v0 in the k-core of G
/// (kNotExists exactly when v0 is outside the k-core). O(|V| + |E|). The
/// peel and the BFS charge `guard` as they go; a trip mid-peel degrades
/// to v0's component among the not-yet-removed vertices (or an exact
/// kNotExists when v0 was already peeled), a trip mid-BFS to the listed
/// prefix. GlobalCstMulti (core/multi.h) is the same peel over a seed set.
SearchResult GlobalCst(const Graph& graph, VertexId v0, uint32_t k,
                       QueryGuard* guard = nullptr,
                       obs::Recorder* recorder = nullptr);

/// Global CSM via core decomposition — the linear implementation of the
/// greedy algorithm (m*(G, v0) equals the core number of v0; the answer is
/// v0's component of its maxcore). O(|V| + |E|). Unlike the CST peel, the
/// decomposition cannot be interrupted: the guard is consulted on entry
/// and charged the whole |V| + 2|E| cost up front.
SearchResult GlobalCsm(const Graph& graph, VertexId v0,
                       QueryGuard* guard = nullptr,
                       obs::Recorder* recorder = nullptr);

/// Global CSM by literal greedy deletion as described in §3.2: repeatedly
/// delete a minimum-degree vertex, forming G0 ⊃ G1 ⊃ …, stop when v0 is
/// next to be deleted, and return the component of v0 in the Gi with the
/// largest δ(Gi). Kept as an independently-implemented oracle for the
/// decomposition-based solver. O(|V| + |E|).
Community GreedyGlobalCsm(const Graph& graph, VertexId v0);

}  // namespace locs

#endif  // LOCS_CORE_GLOBAL_H_
