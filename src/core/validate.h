// LOCS_VALIDATE — the debug-mode solver-postcondition oracle.
//
// The paper's correctness claims (§4–§5: every solver returns a connected
// community containing the query vertex whose reported δ(G[H]) is the
// exact induced minimum degree) are promises each solver must keep on
// *every* return path — found, not-exists, and all three interrupted
// causes. This module re-verifies those promises from scratch, by a
// direct BFS + degree recount that shares no code with the solvers, and
// aborts through LOCS_CHECK with a structured diagnostic on violation.
//
// The checking functions are always compiled (tests call them directly);
// the *hooks* inside the solvers are compiled in only under
// -DLOCS_VALIDATE=ON, which the validate ctest lane enables (see
// tools/run_tidy.sh's sibling lanes in .github/workflows/ci.yml). Cost
// per query is O(sum of member degrees) plus, once per distinct graph, a
// full CSR well-formedness pass via graph/invariants.h.

#ifndef LOCS_CORE_VALIDATE_H_
#define LOCS_CORE_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/common.h"
#include "core/result.h"
#include "graph/graph.h"

namespace locs::validate {

/// Returns "" when `community` is structurally sound over `graph`:
/// members in-range and duplicate-free, every vertex of `query` a
/// member, the induced subgraph connected, and `community.min_degree`
/// exactly equal to the recomputed induced minimum degree. Otherwise a
/// description of the first violation. An empty member set is a
/// violation (callers gate on result status first).
std::string CheckCommunity(const Graph& graph, const Community& community,
                           const std::vector<VertexId>& query);

/// Returns "" when `result` honors the SearchResult contract
/// (core/result.h) for a query rooted at `query` with minimum-degree
/// threshold `k` (pass 0 for CSM-style maximization queries, which have
/// no threshold):
///   - kFound: `community` engaged and sound per CheckCommunity (all
///     query vertices members), with min_degree >= k;
///   - kNotExists: no community and an empty best_so_far;
///   - interrupted (deadline/budget/cancel): no community; best_so_far
///     sound per CheckCommunity but only required to contain
///     query.front() (a multi-seed partial answer may not reach the
///     other query vertices).
/// Also verifies, once per distinct graph, CSR well-formedness via
/// graph/invariants.h.
std::string CheckSearchResult(const Graph& graph, const SearchResult& result,
                              const std::vector<VertexId>& query, uint32_t k);

/// Aborts via LOCS_CHECK with a "[LOCS_VALIDATE] solver=... query=...
/// k=... violation=..." diagnostic when CheckSearchResult reports a
/// violation. `solver` names the call site.
void DieOnViolation(const char* solver, const Graph& graph,
                    const SearchResult& result,
                    const std::vector<VertexId>& query, uint32_t k);

/// Single-query-vertex convenience overload.
void DieOnViolation(const char* solver, const Graph& graph,
                    const SearchResult& result, VertexId v0, uint32_t k);

/// The query a multi-vertex CSM answer must hold: all of `query`, except
/// in the documented disconnected-seeds fallback (found, {query[0]},
/// δ = 0; GlobalCsmMulti and CommunitySearcher::CsmMulti), which holds
/// only query[0]. Pass it as LOCS_VALIDATE_RESULT's query with k = 0.
std::vector<VertexId> CsmMultiQuery(const SearchResult& result,
                                    const std::vector<VertexId>& query);

/// Forgets the set of graphs whose CSR has already been validated (the
/// per-graph cache behind CheckSearchResult). Tests use this to force
/// revalidation; production code never needs it.
void ResetValidatedGraphCache();

}  // namespace locs::validate

// Solver-side hooks: compiled to nothing unless the build enables the
// oracle. `query` may be a VertexId or a std::vector<VertexId>.
#if defined(LOCS_VALIDATE)
#define LOCS_VALIDATE_RESULT(solver, graph, result, query, k) \
  ::locs::validate::DieOnViolation(solver, graph, result, query, k)
#else
#define LOCS_VALIDATE_RESULT(solver, graph, result, query, k) \
  do {                                                        \
  } while (0)
#endif

#endif  // LOCS_CORE_VALIDATE_H_
