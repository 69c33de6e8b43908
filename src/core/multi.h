// Multi-vertex community search — an extension beyond the paper.
//
// The paper (§7) frames its problem as the single-vertex special case of
// Sozio & Gionis's community search, which asks for a community containing
// a *set* of query vertices:
//
//   CstMulti(Q, k): connected H ⊇ Q with δ(G[H]) >= k, or nullopt;
//   CsmMulti(Q):    connected H ⊇ Q maximizing δ(G[H]).
//
// This header holds the global oracles. The local solver is not a second
// engine: LocalCstSolver::CstMulti/CsmMulti (core/local_cst.h) run the
// paper's li expansion, G[C] peel and BFS over the query set.
//
// Served MULTI queries run neither. CommunitySearcher answers them from
// the CoreIndex: the maximal community, i.e. query[0]'s component of
// `core >= k` (for CSM, at the δ of the seeds' deepest common core-forest
// node), with `n=` and δ read off the forest, the members in
// GlobalCstMulti's BFS order, `visited=` the listing BFS's pops and
// `fallback=0`. The global solvers here are its test oracles.

#ifndef LOCS_CORE_MULTI_H_
#define LOCS_CORE_MULTI_H_

#include <vector>

#include "core/local_cst.h"
#include "core/result.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "util/guard.h"

namespace locs {

/// Global multi-vertex CST(k): peel vertices of degree < k, then require
/// every query vertex to survive in one common component. O(|V| + |E|).
/// The peel is one indivisible pass: the guard is consulted on entry and
/// charged the whole cost but cannot interrupt the pass itself.
SearchResult GlobalCstMulti(const Graph& graph,
                            const std::vector<VertexId>& query, uint32_t k,
                            QueryGuard* guard = nullptr,
                            obs::Recorder* recorder = nullptr);

/// Global multi-vertex CSM: the largest k for which GlobalCstMulti
/// succeeds, found by binary search (O((|V| + |E|) log δ*)). A shared
/// guard spans all probes; an interrupted search reports the best
/// community proven so far.
SearchResult GlobalCsmMulti(const Graph& graph,
                            const std::vector<VertexId>& query,
                            QueryGuard* guard = nullptr,
                            obs::Recorder* recorder = nullptr);

/// The local multi-vertex solver is LocalCstSolver: `CstMulti`/`CsmMulti`
/// run its one li expansion, G[C] peel and BFS over a query set. The old
/// name is kept only for the benchmark replay (perfbench/tool.cc), its one
/// remaining user; the change that next edits the benchmark deletes it.
using LocalMultiSolver = LocalCstSolver;

}  // namespace locs

#endif  // LOCS_CORE_MULTI_H_
