// Local search for CSM — Algorithm 4 of the paper (§5).
//
// Three phases:
//   1. Expansion from the query vertex by the `li` rule, tracking the best
//      prefix H of the visited sequence by δ(G[H]); the loop stops when the
//      γ-scaled Corollary-1 budget (Eq. 8) is exceeded, when the frontier
//      empties, or immediately when δ(G[H]) hits the Eq.-7 upper bound
//      min(deg(v0), Theorem-3 bound).
//   2. Candidate generation: C ← A (Solution 1, "CSM1") or
//      C ← Cnaive(δ(G[H])) (Solution 2, "CSM2", Theorem 7).
//   3. maxcore(G[C], v0) — the final answer.
//
// CSM2 is always exact; CSM1 is exact for γ → −∞ (Theorem 6) and trades
// quality for speed as γ grows (Figure 14).

#ifndef LOCS_CORE_LOCAL_CSM_H_
#define LOCS_CORE_LOCAL_CSM_H_

#include "core/bucket_list.h"
#include "core/common.h"
#include "core/epoch.h"
#include "core/local_cst.h"
#include "core/result.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "util/guard.h"

namespace locs {

/// Reusable local-CSM solver bound to one graph. Not thread-safe.
class LocalCsmSolver {
 public:
  LocalCsmSolver(const Graph& graph, const OrderedAdjacency* ordered,
                 const GraphFacts* facts);

  /// Solves CSM for `v0`: a connected community containing v0 whose
  /// minimum degree is maximal (exact for CSM2 or γ → −∞; a lower bound
  /// otherwise). CSM always has an answer (the singleton at worst), so an
  /// uninterrupted query reports kFound. On a `guard` trip the best prefix
  /// H found so far — connected, containing v0, with exact δ(G[H]) — comes
  /// back in `best_so_far`.
  /// The unnamed third parameter is an ignored slot (always nullptr; see
  /// core/common.h), kept only for the benchmark replay
  /// (perfbench/tool.cc), which passes it positionally; the change that
  /// next edits the benchmark deletes it. Read the query's effort from
  /// `SearchResult::telemetry`.
  SearchResult Solve(VertexId v0, const CsmOptions& options = {},
                     QueryStats* = nullptr, QueryGuard* guard = nullptr);

  /// Telemetry sink for completed queries; defaults to the no-op null
  /// sink. Not owned.
  void set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  }

 private:
  SearchResult SolveImpl(VertexId v0, const CsmOptions& options,
                         QueryGuard* guard, obs::PhaseTracker& tracker);
  void AddToA(VertexId v, obs::PhaseStats& ph);
  bool NaiveCandidates(VertexId v0, uint32_t k, obs::PhaseStats& ph,
                       QueryGuard& guard, uint64_t& charged,
                       std::vector<VertexId>* out);
  bool MaxCoreOfCandidates(VertexId v0,
                           const std::vector<VertexId>& candidates,
                           QueryGuard& guard, obs::PhaseTracker& tracker,
                           Community* out);
  Community HarvestPrefix(size_t h_len, uint32_t delta_h) const;

  const Graph& graph_;
  const OrderedAdjacency* ordered_;
  const GraphFacts* facts_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  obs::QueryTelemetry telemetry_;  // reset at the top of every Solve

  // Flattened scratch: membership and induced degree share one packed
  // cell (fresh ⟺ v ∈ A), and the frontier's own epoch stamps double as
  // the "discovered at least once" bit (erased entries leave tombstones),
  // so the line-14 inner loop costs two single-cell probes per neighbor.
  EpochU32Array a_deg_;            // fresh ⟺ in A; value = deg within G[A]
  EpochFlags bfs_seen_;            // scratch for Cnaive BFS (CSM2)
  EpochU32Array local_id_;         // candidate -> compact id + 1
  EpochBucketList frontier_;       // B, keyed by incidence to A
  std::vector<VertexId> order_;    // A in insertion order
  // Compact unsorted CSR over the candidate set, rebuilt per query for
  // the maxcore phase (allocations amortize across queries).
  std::vector<uint64_t> sub_offsets_;
  std::vector<uint32_t> sub_neighbors_;
  std::vector<uint32_t> sub_degree_;
  std::vector<uint64_t> degree_count_;  // histogram of deg_in_a values
  uint32_t max_count_touched_ = 0;
  uint32_t delta_a_ = 0;           // δ(G[A]), maintained incrementally
};

}  // namespace locs

#endif  // LOCS_CORE_LOCAL_CSM_H_
