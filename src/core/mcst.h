// Solvers for mCST(k) — the minimum-size CST variant (Problem Definition
// 3). The paper proves mCST NP-complete (Theorem 1) and stops there; this
// module adds the natural follow-ups: a budgeted exact branch-and-bound for
// small instances and a shrink-greedy heuristic for large ones, plus the
// Lemma-1 clique shortcut both solvers exploit.

#ifndef LOCS_CORE_MCST_H_
#define LOCS_CORE_MCST_H_

#include <cstdint>
#include <optional>

#include "core/common.h"
#include "core/result.h"
#include "graph/graph.h"
#include "util/guard.h"

namespace locs {

/// Lemma 1: a clique of size k+1 containing v0 is a smallest possible
/// CST(k) solution (every solution needs >= k+1 vertices). Searches v0's
/// neighborhood for such a clique with a backtracking search that charges
/// `guard` one unit per step; returns its members on success, nullopt when
/// there is none or the guard stopped the search.
std::optional<std::vector<VertexId>> FindCliqueThrough(
    const Graph& graph, VertexId v0, uint32_t size,
    QueryGuard* guard = nullptr);

/// Exact mCST(k) by branch-and-bound over connected supersets of {v0}.
/// Exponential; intended for small graphs / small answers. One `guard`
/// covers the whole query: the greedy stage (GreedyMcst, whose answer
/// bounds the search), then the clique shortcut and the exact search,
/// which charge it one unit per search step and report those steps in
/// `telemetry[Phase::kExpansion].budget_spent`. An interrupted run
/// answers in `best_so_far` the greedy upper bound, or the greedy stage's
/// own partial when the guard stopped that stage.
SearchResult ExactMcst(const Graph& graph, VertexId v0, uint32_t k,
                       QueryGuard* guard = nullptr);

/// Heuristic mCST(k): start from any CST(k) solution (the k-core component
/// of v0) and greedily delete vertices while the community stays valid.
/// kNotExists exactly when CST(k) itself has no solution. The kFound
/// result is inclusion-minimal but not necessarily minimum; a guard trip
/// yields the smallest still-valid community reached so far (which is a
/// genuine CST(k) answer — shrinking only stopped early).
SearchResult GreedyMcst(const Graph& graph, VertexId v0, uint32_t k,
                        QueryGuard* guard = nullptr);

}  // namespace locs

#endif  // LOCS_CORE_MCST_H_
