// CommunitySearcher — the high-level public API of the library.
//
// Binds the paper's local CST and multi-vertex solvers to one immutable
// Snapshot: the graph plus its whole-graph facts (Theorem-3/5 bounds), the
// §4.3.2 degree-ordered adjacency and the CoreIndex, and answers CSM from
// that index. It is the one type that does this binding; a locsd session
// binds a registry entry the same way. Exposes the local and global
// CST/CSM entry points.
//
// Typical use:
//   CommunitySearcher searcher(std::move(graph));   // builds the snapshot
//   auto community = searcher.Cst(v, 5);            // CST(5), local search
//   auto best = searcher.Csm(v);                    // best community
//
// The searcher is stateful scratch-wise (solvers and the CSM BFS reuse
// epoch-stamped buffers) and therefore not thread-safe; create one per
// thread over a shared snapshot.

#ifndef LOCS_CORE_SEARCHER_H_
#define LOCS_CORE_SEARCHER_H_

#include <memory>
#include <span>
#include <vector>

#include "core/common.h"
#include "core/epoch.h"
#include "core/local_cst.h"
#include "core/multi.h"
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

  /// Adaptive CST(k) (extension): local search when the degree
  /// distribution predicts a small candidate universe |V≥k|, global
  /// search otherwise. Always exact; typically within a few percent of
  /// the better of the two fixed strategies at every k.
  SearchResult CstAdaptive(VertexId v0, uint32_t k,
                           const CstOptions& options = {},
                           QueryStats* stats = nullptr,
                           QueryGuard* guard = nullptr);

  /// Fraction of vertices with degree >= k (exact, from the degree
  /// histogram built on first use) — the dispatch signal of CstAdaptive.
  double DegreeTailFraction(uint32_t k) const;

  /// Exact CSM from the CoreIndex: v0's connected component of its
  /// maxcore (Lemma 4), δ = CoreNumber(v0), members in BFS order. One BFS
  /// over the vertices whose core number is at least v0's, so the cost
  /// follows the answer. An interrupted query's partial is {v0}, δ = 0.
  /// The paper's local CSM (Algorithm 4) is LocalCsmSolver.
  SearchResult Csm(VertexId v0, QueryStats* stats = nullptr,
                   QueryGuard* guard = nullptr);

  /// Global CSM (§3.2): greedy minimum-degree deletion via core
  /// decomposition.
  SearchResult CsmGlobal(VertexId v0, QueryStats* stats = nullptr,
                         QueryGuard* guard = nullptr);

  /// Multi-vertex CST(k) (extension; see core/multi.h): a connected
  /// community containing every query vertex with δ >= k. Takes the same
  /// CoreIndex shortcut as Cst when any seed lies outside the k-core.
  SearchResult CstMulti(const std::vector<VertexId>& query, uint32_t k,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr);

  /// Multi-vertex CSM (extension): maximizes δ over communities spanning
  /// the whole query set.
  SearchResult CsmMulti(const std::vector<VertexId>& query,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr);

  /// Telemetry sink shared by every solver behind this facade (local and
  /// global, single- and multi-vertex). Defaults to the no-op null sink;
  /// pass nullptr to restore it. Not owned.
  void set_recorder(obs::Recorder* recorder);

 private:
  /// True when the CoreIndex proves CST(k) has no answer for `seeds`: a
  /// δ >= k community lies inside the k-core (Lemma 3/4). Zeroes `*stats`
  /// (optional) when it does. Out-of-range ids are left to the solvers,
  /// which reject them.
  bool IndexRulesOut(std::span<const VertexId> seeds, uint32_t k,
                     QueryStats* stats) const;
  /// Appends to `out` the BFS from v0 over vertices whose core number is
  /// at least v0's. Returns false when the guard trips mid-BFS.
  bool MaxcoreComponent(VertexId v0, QueryGuard& guard, obs::PhaseStats& ph,
                        std::vector<VertexId>* out);

  std::shared_ptr<const Snapshot> snapshot_;
  /// tail_count_[k]: number of vertices with degree >= k; empty until the
  /// first DegreeTailFraction call, so binding costs no O(|V|) pass.
  mutable std::vector<uint64_t> tail_count_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  LocalCstSolver cst_solver_;
  LocalMultiSolver multi_solver_;
  /// Csm's BFS seen-set.
  EpochFlags csm_seen_;
};

}  // namespace locs

#endif  // LOCS_CORE_SEARCHER_H_
