// CommunitySearcher — the high-level public API of the library.
//
// Binds the paper's local CST solver to one immutable Snapshot: the graph
// plus its whole-graph facts (Theorem-3/5 bounds), the §4.3.2
// degree-ordered adjacency and the CoreIndex. CSM and both multi-vertex
// queries are answered from the index's core numbers (Lemmas 3 and 4 lift
// to seed sets): a δ >= k community holding every seed exists iff the
// seeds share one connected component of `core >= k`, and that component
// is the maximal answer. A CSM under a member limit reads its size and δ
// off the index and stops its BFS once that many members are queued. It
// is the one type that does this binding; a
// locsd session binds a registry entry the same way. Exposes the local
// and global CST/CSM entry points.
//
// Typical use:
//   CommunitySearcher searcher(std::move(graph));   // builds the snapshot
//   auto community = searcher.Cst(v, 5);            // CST(5), local search
//   auto best = searcher.Csm(v);                    // best community
//
// The searcher is stateful scratch-wise (the CST solver, the component
// BFS and the multi-vertex CSM sweep reuse epoch-stamped buffers) and
// therefore not thread-safe; create one per thread over a shared snapshot.

#ifndef LOCS_CORE_SEARCHER_H_
#define LOCS_CORE_SEARCHER_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/common.h"
#include "core/epoch.h"
#include "core/local_cst.h"
#include "core/result.h"
#include "core/snapshot.h"
#include "graph/graph.h"
#include "util/guard.h"

namespace locs {

/// High-level community search over one graph.
class CommunitySearcher {
 public:
  /// Binds the solvers to `snapshot`, which the searcher keeps alive.
  explicit CommunitySearcher(std::shared_ptr<const Snapshot> snapshot);
  /// Builds the snapshot of `graph` (Snapshot::Build) and binds to it.
  explicit CommunitySearcher(Graph graph);

  CommunitySearcher(const CommunitySearcher&) = delete;
  CommunitySearcher& operator=(const CommunitySearcher&) = delete;

  const Graph& graph() const { return snapshot_->graph; }
  const GraphFacts& facts() const { return snapshot_->facts; }

  /// Local CST(k) (§4). kNotExists iff no solution exists; a vertex
  /// outside the k-core is answered from the CoreIndex without a search
  /// (`stats` then reads all zeros). An optional `guard` can interrupt the
  /// query with a graceful partial answer (see core/result.h).
  SearchResult Cst(VertexId v0, uint32_t k, const CstOptions& options = {},
                   QueryStats* stats = nullptr, QueryGuard* guard = nullptr);

  /// Global CST(k) (§3) — the baseline every figure compares against.
  SearchResult CstGlobal(VertexId v0, uint32_t k,
                         QueryStats* stats = nullptr,
                         QueryGuard* guard = nullptr);

  /// Exact CSM from the CoreIndex: v0's connected component of its
  /// maxcore (Lemma 4), δ = CoreNumber(v0), members in BFS order. One BFS
  /// over the vertices whose core number is at least v0's, so the cost
  /// follows the answer. A non-zero `member_limit` lists only the first
  /// `member_limit` members of that order: the BFS stops after the
  /// vertex whose scan queues the limit-th member, and
  /// `SearchResult::unlisted` counts the rest (AnswerSize() is
  /// CoreIndex::ComponentSize(v0)). An interrupted query's partial is
  /// {v0}, δ = 0. The paper's local CSM (Algorithm 4) is LocalCsmSolver.
  SearchResult Csm(VertexId v0, QueryStats* stats = nullptr,
                   QueryGuard* guard = nullptr, uint64_t member_limit = 0);

  /// Global CSM (§3.2): greedy minimum-degree deletion via core
  /// decomposition.
  SearchResult CsmGlobal(VertexId v0, QueryStats* stats = nullptr,
                         QueryGuard* guard = nullptr);

  /// Multi-vertex CST(k) (extension; see core/multi.h) from the CoreIndex:
  /// the maximal connected community holding every query vertex with
  /// δ >= k, i.e. query[0]'s component of `core >= k`, members in the BFS
  /// order of GlobalCstMulti. kNotExists when a seed lies outside the
  /// k-core (answered from the core numbers alone; `stats` then reads all
  /// zeros) or outside that component. Seeds must be distinct and in
  /// range (checked in O(|query|)). An interrupted query's partial is
  /// {query[0]}, δ = 0.
  SearchResult CstMulti(const std::vector<VertexId>& query, uint32_t k,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr);

  /// Multi-vertex CSM (extension) from the CoreIndex: the largest δ for
  /// which the seeds share a component of `core >= δ`, found by a
  /// max-bottleneck sweep from query[0], and that component (the answer
  /// of CstMulti at k = δ). Seeds in different connected components get
  /// GlobalCsmMulti's fallback: found, {query[0]}, δ = 0. Same seed
  /// checks and interrupted partial as CstMulti.
  SearchResult CsmMulti(const std::vector<VertexId>& query,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr);

  /// Telemetry sink shared by every query behind this facade (local and
  /// global, single- and multi-vertex). Defaults to the no-op null sink;
  /// pass nullptr to restore it. Not owned.
  void set_recorder(obs::Recorder* recorder);

 private:
  /// Dies (LOCS_CHECK) unless `seeds` is non-empty, in range and
  /// duplicate-free: O(|seeds|) through `seen_`, which then holds exactly
  /// the seeds. Charges the guard one unit per seed past the first (the
  /// traversal charges the first when it visits it).
  void CheckSeeds(std::span<const VertexId> seeds, QueryGuard& guard);
  /// The maximal answer for `seeds` at threshold k: the BFS from seeds[0]
  /// over `core >= k`, cut to its first `stop_at` members; kNotExists
  /// when it misses a seed; {seeds[0]}, δ = 0 interrupted when the guard
  /// trips. A cut BFS may miss seeds it would reach, so multi-seed
  /// callers pass SIZE_MAX.
  SearchResult ComponentAnswer(std::span<const VertexId> seeds, uint32_t k,
                               size_t stop_at, QueryGuard& guard,
                               obs::PhaseTracker& tracker,
                               obs::QueryTelemetry& telemetry);
  /// Appends to `out` the BFS from `root` (core number >= k) over the
  /// vertices whose core number is at least k, in graph().Neighbors order,
  /// and returns the least core number among them; nullopt when the guard
  /// trips mid-BFS. Stops after the vertex whose scan queues the
  /// `stop_at`-th member and keeps only the first `stop_at`.
  std::optional<uint32_t> CoreComponent(VertexId root, uint32_t k,
                                        size_t stop_at, QueryGuard& guard,
                                        obs::PhaseStats& ph,
                                        std::vector<VertexId>* out);
  /// Max-bottleneck sweep from seeds[0] (seeds marked in `seen_` by
  /// CheckSeeds): pops vertices in descending order of the least core
  /// number on their best path from seeds[0], one bucket per core value.
  /// Returns the level at which the last seed pops, or nullopt when a
  /// seed is unreachable or the guard trips (guard.Stopped() tells which).
  std::optional<uint32_t> BottleneckSweep(std::span<const VertexId> seeds,
                                          QueryGuard& guard,
                                          obs::PhaseStats& ph);

  std::shared_ptr<const Snapshot> snapshot_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  LocalCstSolver cst_solver_;
  /// The component BFS's seen-set; also the seed set during validation
  /// and the sweep.
  EpochFlags seen_;
  /// The sweep's reached set; allocated by the first CsmMulti, so a bind
  /// that never runs one pays nothing for it.
  EpochFlags sweep_reached_{0};
  /// sweep_buckets_[c]: vertices queued at level c (one per core value).
  std::vector<std::vector<VertexId>> sweep_buckets_;
};

}  // namespace locs

#endif  // LOCS_CORE_SEARCHER_H_
