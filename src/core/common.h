// Shared types of the community-search solvers: results, per-query
// statistics, and strategy/option enums.

#ifndef LOCS_CORE_COMMON_H_
#define LOCS_CORE_COMMON_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "obs/telemetry.h"

namespace locs {

/// Candidate-selection strategy for local CST search (§4.2.2 and §4.3.1).
enum class Strategy {
  kNaive,  ///< FIFO breadth-first selection (Algorithm 3).
  kLG,     ///< largest increment of goodness (Equation 5).
  kLI,     ///< largest number of incidence (Equation 6, Figure 5).
};

/// Human-readable strategy name ("naive", "lg", "li").
std::string_view StrategyName(Strategy strategy);

/// Per-query instrumentation, reported by every solver. These counters feed
/// Figure 13 (answer size and visited vertices) and the efficiency
/// discussions of §6.1.3.
///
/// Since the obs layer landed, this is a *derived view*: solvers account
/// into an obs::QueryTelemetry (per-phase counters + spans, carried by
/// SearchResult) and the totals are projected back here via ToQueryStats
/// for callers that only want the four classic numbers.
struct QueryStats {
  /// Vertices moved into the candidate/visited set.
  uint64_t visited_vertices = 0;
  /// Adjacency entries touched during expansion.
  uint64_t scanned_edges = 0;
  /// True when candidate generation failed to find the answer directly and
  /// the global fallback on G[C] ran (line 6 of Algorithm 2).
  bool used_global_fallback = false;
  /// Size of the returned community (0 when there is none).
  uint64_t answer_size = 0;
};

/// Projects per-phase telemetry onto the legacy QueryStats totals. The
/// projection is exact: every counter increment in the solvers lands in
/// exactly one phase, so the sums equal what the pre-obs counters held.
QueryStats ToQueryStats(const obs::QueryTelemetry& telemetry);

/// A community-search answer: the member set (parent-graph vertex ids) and
/// its goodness δ(G[H]).
struct Community {
  std::vector<VertexId> members;
  uint32_t min_degree = 0;
};

/// Options controlling local CST search.
struct CstOptions {
  Strategy strategy = Strategy::kLI;
};

/// Candidate-set rule for the third step of local CSM (§5.2).
enum class CsmCandidateRule {
  kFromVisited,  ///< Solution 1 (CSM1): C ← A, quality tunable via γ.
  kFromNaive,    ///< Solution 2 (CSM2): C ← Cnaive(δ(G[H])), always exact.
};

/// Options controlling local CSM search (Algorithm 4).
struct CsmOptions {
  /// Search-space control of Equation 8: γ → −∞ disables the budget
  /// (exhaustive first phase), γ = 0 uses the exact Corollary-1 bound,
  /// larger γ shrinks the budget exponentially.
  double gamma = 0.0;
  CsmCandidateRule candidate_rule = CsmCandidateRule::kFromNaive;
};

}  // namespace locs

#endif  // LOCS_CORE_COMMON_H_
