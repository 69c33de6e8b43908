// Multi-vertex community search — an extension beyond the paper.
//
// The paper (§7) frames its problem as the single-vertex special case of
// Sozio & Gionis's community search, which asks for a community containing
// a *set* of query vertices. This module generalizes both solvers:
//
//   CstMulti(Q, k): connected H ⊇ Q with δ(G[H]) >= k, or nullopt;
//   CsmMulti(Q):    connected H ⊇ Q maximizing δ(G[H]).
//
// The local CST framework carries over: candidate generation seeds C with
// all of Q and expands by the li rule; early success additionally needs
// G[C] to connect the query vertices, tracked incrementally with an
// epoch-stamped union-find. CSM reduces to CST by binary search on k
// (Propositions 1-2 make feasibility monotone in k).
//
// Served MULTI queries do not run these solvers. CommunitySearcher answers
// them from the CoreIndex: the maximal community, i.e. query[0]'s
// component of `core >= k` (for CSM, at the δ a max-bottleneck sweep
// finds), with the members in GlobalCstMulti's BFS order, `visited=` the
// BFS/sweep count and `fallback=0`. The global solvers here are its test
// oracles. LocalMultiSolver stays for the benchmark replay and the
// local-vs-maximal ablations.

#ifndef LOCS_CORE_MULTI_H_
#define LOCS_CORE_MULTI_H_

#include "core/bucket_list.h"
#include "core/common.h"
#include "core/epoch.h"
#include "core/local_cst.h"
#include "core/result.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "util/guard.h"

namespace locs {

/// Global multi-vertex CST(k): peel vertices of degree < k, then require
/// every query vertex to survive in one common component. O(|V| + |E|).
/// The peel is one indivisible pass: the guard is consulted on entry and
/// charged the whole cost but cannot interrupt the pass itself.
SearchResult GlobalCstMulti(const Graph& graph,
                            const std::vector<VertexId>& query, uint32_t k,
                            QueryStats* stats = nullptr,
                            QueryGuard* guard = nullptr,
                            obs::Recorder* recorder = nullptr);

/// Global multi-vertex CSM: the largest k for which GlobalCstMulti
/// succeeds, found by binary search (O((|V| + |E|) log δ*)). A shared
/// guard spans all probes; an interrupted search reports the best
/// community proven so far.
SearchResult GlobalCsmMulti(const Graph& graph,
                            const std::vector<VertexId>& query,
                            QueryStats* stats = nullptr,
                            QueryGuard* guard = nullptr,
                            obs::Recorder* recorder = nullptr);

/// Reusable local multi-vertex solver. Not thread-safe.
class LocalMultiSolver {
 public:
  LocalMultiSolver(const Graph& graph, const OrderedAdjacency* ordered,
                   const GraphFacts* facts);

  /// Local CST(k) for a query set (li selection). Exact: kNotExists iff no
  /// solution exists. Query vertices must be distinct. On a guard trip the
  /// best-so-far is the connected fragment containing the *first* query
  /// vertex (a multi-seed candidate set may still be disconnected).
  SearchResult CstMulti(const std::vector<VertexId>& query, uint32_t k,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr);

  /// Local CSM for a query set via binary search over CstMulti. All probes
  /// charge one shared guard (work and wall-clock accumulate across the
  /// whole search); interruption reports the best community proven so far.
  SearchResult CsmMulti(const std::vector<VertexId>& query,
                        QueryStats* stats = nullptr,
                        QueryGuard* guard = nullptr);

  /// Telemetry sink for completed queries; defaults to the no-op null
  /// sink. Not owned. A CSM query records once (the binary-search probes
  /// accumulate into one QueryTelemetry), not once per probe.
  void set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  }

 private:
  SearchResult CstMultiImpl(const std::vector<VertexId>& query, uint32_t k,
                            QueryGuard* guard, obs::PhaseTracker& tracker);
  SearchResult CsmMultiImpl(const std::vector<VertexId>& query,
                            QueryGuard* guard, obs::PhaseTracker& tracker);
  VertexId Find(VertexId v);
  void Union(VertexId a, VertexId b);
  void AddToC(VertexId v, uint32_t k, obs::PhaseStats& ph);
  SearchResult Fallback(const std::vector<VertexId>& query, uint32_t k,
                        obs::PhaseTracker& tracker, QueryGuard& guard,
                        uint64_t& charged);
  bool QueriesConnected(const std::vector<VertexId>& query);
  Community HarvestFragment(VertexId anchor);
  Community HarvestUnpeeled(VertexId anchor);

  const Graph& graph_;
  const OrderedAdjacency* ordered_;
  const GraphFacts* facts_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  obs::QueryTelemetry telemetry_;  // reset per top-level query only

  EpochArray<uint8_t> in_c_;
  EpochArray<uint8_t> enqueued_;
  EpochArray<uint8_t> peeled_;
  EpochArray<uint32_t> deg_in_c_;
  EpochArray<uint32_t> dsu_parent_;  // vertex id + 1; 0 = self
  EpochBucketList li_queue_;
  std::vector<VertexId> c_members_;
  std::vector<VertexId> peel_worklist_;
  uint64_t deficient_ = 0;
};

}  // namespace locs

#endif  // LOCS_CORE_MULTI_H_
