// The exponential baseline local search — Algorithm 1 of §4.1.
//
// Theorem 2 guarantees that every CST(k) solution is reachable by a vertex
// sequence along which δ never decreases, so a depth-first enumeration of
// monotone extensions is complete. Its worst case is exponential; the
// paper's Table 2 shows it failing to answer within a minute on real
// graphs, which is exactly why the framework of §4.2 exists. A QueryGuard
// makes the behaviour measurable without unbounded runtimes.

#ifndef LOCS_CORE_BASELINE_H_
#define LOCS_CORE_BASELINE_H_

#include <cstdint>

#include "core/common.h"
#include "core/result.h"
#include "graph/graph.h"
#include "util/guard.h"

namespace locs {

/// Runs Algorithm 1 for CST(k) from `v0`. Each recursive search step
/// charges `guard` one unit (so a work budget counts search steps) and is
/// reported in `telemetry[Phase::kExpansion].budget_spent`. An
/// interrupted run answers `{v0}` with δ = 0; kNotExists is exact.
SearchResult BaselineCst(const Graph& graph, VertexId v0, uint32_t k,
                         QueryGuard* guard = nullptr);

}  // namespace locs

#endif  // LOCS_CORE_BASELINE_H_
