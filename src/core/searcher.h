// CommunitySearcher — the high-level public API of the library.
//
// Binds the paper's local CST solver to one immutable Snapshot: the graph
// plus its whole-graph facts (Theorem-3/5 bounds), the §4.3.2
// degree-ordered adjacency and the CoreIndex, whose core numbers the
// solver also gets. Its expansion then skips every vertex outside the
// k-core (Lemma 3) and so always ends in early success: a CST answered
// here never runs the G[C] peel. CSM and both multi-vertex
// queries are answered from the index (Lemmas 3 and 4 lift to seed
// sets): a δ >= k community holding every seed exists iff the seeds
// share one connected component of `core >= k`, and that component is
// the maximal answer. The index's core forest names that component, its
// size and its δ without a traversal; one BFS from the first seed then
// lists its members, and stops once a member limit's worth are queued.
// It is the one type that does this binding; locsd's
// GraphRegistry keeps idle searchers over each entry and leases one to
// each query (serve/registry.h). Exposes the local and global CST/CSM
// entry points.
//
// Typical use:
//   CommunitySearcher searcher(std::move(graph));   // builds the snapshot
//   auto community = searcher.Cst(v, 5);            // CST(5), local search
//   auto best = searcher.Csm(v);                    // best community
//
// The searcher is stateful scratch-wise (the CST solver and the
// component BFS reuse epoch-stamped buffers) and
// therefore not thread-safe; create one per thread over a shared snapshot.
// Creating one is cheap: the buffers are zero-page mappings, not filled
// vectors, so binding costs O(1) whatever |V|, resident scratch grows
// only with the pages queries write, and destruction unmaps it. The
// first queries on a new searcher still pay those pages' first-touch
// faults, which is why locsd reuses searchers across sessions.

#ifndef LOCS_CORE_SEARCHER_H_
#define LOCS_CORE_SEARCHER_H_

#include <memory>
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

  /// Local CST(k) (§4), expanding through the k-core only. kNotExists iff
  /// no solution exists; a vertex outside the k-core is answered from the
  /// CoreIndex without a search (`stats` then reads all zeros). The answer
  /// equals the core-less paper solver's wherever that one ends in early
  /// success, and is a subset of its answer where it falls back. An
  /// optional `guard` can interrupt the query with a graceful partial
  /// answer (see core/result.h).
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
  /// k-core or the seeds' forest nodes at k differ (answered from the
  /// index alone; `stats` then reads all zeros). Seeds must be distinct
  /// and in range (checked in O(|query|)). `member_limit` cuts the listing
  /// as in Csm; AnswerSize() and δ come from the forest node. An
  /// interrupted query's partial is {query[0]}, δ = 0.
  SearchResult CstMulti(const std::vector<VertexId>& query, uint32_t k,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr,
                        uint64_t member_limit = 0);

  /// Multi-vertex CSM (extension) from the CoreIndex: the seeds' deepest
  /// common forest node, whose level δ is the largest k for which they
  /// share a component of `core >= k`, and that component (the answer of
  /// CstMulti at k = δ). Seeds in different connected components get
  /// GlobalCsmMulti's fallback: found, {query[0]}, δ = 0. Same seed
  /// checks, member limit and interrupted partial as CstMulti.
  SearchResult CsmMulti(const std::vector<VertexId>& query,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr,
                        uint64_t member_limit = 0);

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
  /// The one listing step of Csm, CstMulti and CsmMulti: the answer
  /// whose component is forest node `node` (which holds every seed), its
  /// members listed by the BFS from seeds[0] over `core >= level`, cut to
  /// the first `member_limit` (0: all). δ is the node's level and
  /// `unlisted` counts the members past the cut. {seeds[0]}, δ = 0
  /// interrupted when the guard trips. Under LOCS_VALIDATE it reruns the
  /// full BFS and checks the node's size and level, the seeds and the
  /// listed prefix against it.
  SearchResult ListComponent(std::span<const VertexId> seeds, uint32_t node,
                             uint64_t member_limit, QueryGuard& guard,
                             obs::PhaseTracker& tracker,
                             obs::QueryTelemetry& telemetry);
  /// Appends to `out` the BFS from `root` (core number >= k) over the
  /// vertices whose core number is at least k, in graph().Neighbors order;
  /// false when the guard trips mid-BFS. Stops after the vertex whose
  /// scan queues the `stop_at`-th member and keeps only the first
  /// `stop_at`.
  bool CoreComponent(VertexId root, uint32_t k, size_t stop_at,
                     QueryGuard& guard, obs::PhaseStats& ph,
                     std::vector<VertexId>* out);

  std::shared_ptr<const Snapshot> snapshot_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  LocalCstSolver cst_solver_;
  /// The component BFS's seen-set; also the seed set during validation.
  EpochFlags seen_;
};

}  // namespace locs

#endif  // LOCS_CORE_SEARCHER_H_
