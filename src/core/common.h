// Shared types of the community-search solvers: answers and
// strategy/option enums. Per-query effort lives in obs/telemetry.h.

#ifndef LOCS_CORE_COMMON_H_
#define LOCS_CORE_COMMON_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/types.h"

namespace locs {

/// Candidate-selection strategy for local CST search (§4.2.2 and §4.3.1).
enum class Strategy {
  kNaive,  ///< FIFO breadth-first selection (Algorithm 3).
  kLG,     ///< largest increment of goodness (Equation 5).
  kLI,     ///< largest number of incidence (Equation 6, Figure 5).
};

/// Human-readable strategy name ("naive", "lg", "li").
std::string_view StrategyName(Strategy strategy);

/// The type of an ignored parameter slot in three solver entry points
/// (LocalCstSolver::Solve and CstMulti, LocalCsmSolver::Solve), kept
/// because the benchmark replay passes `nullptr` there positionally.
/// Declared and never defined, so `nullptr` is the only value a caller
/// can pass. A query's effort is read from the obs::QueryTelemetry that
/// every SearchResult carries. The change that next edits the benchmark
/// deletes the slots and this declaration.
struct QueryStats;

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
