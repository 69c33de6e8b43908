#include "core/multi.h"

#include <algorithm>

#include "core/bounds.h"
#include "core/validate.h"

namespace locs {

namespace {

/// Validates a query set: non-empty, distinct, in range. O(q log q).
void CheckQuery(const Graph& graph, const std::vector<VertexId>& query) {
  LOCS_CHECK(!query.empty());
  std::vector<VertexId> sorted(query);
  std::sort(sorted.begin(), sorted.end());
  LOCS_CHECK_LT(sorted.back(), graph.NumVertices());
  LOCS_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 "duplicate query vertex");
}

/// See GlobalCstMulti below (the public wrapper adds the LOCS_VALIDATE
/// postcondition oracle).
SearchResult GlobalCstMultiImpl(const Graph& graph,
                                const std::vector<VertexId>& query,
                                uint32_t k, obs::QueryTelemetry& telemetry,
                                obs::PhaseTracker& tracker,
                                QueryGuard* guard) {
  CheckQuery(graph, query);
  obs::PhaseStats& peel_ph = tracker.Enter(obs::Phase::kCoreDecomposition);
  peel_ph.vertices_visited += graph.NumVertices();
  peel_ph.edges_scanned += 2 * graph.NumEdges();
  if (guard != nullptr) {
    if (guard->Spend(0)) {
      return SearchResult::MakeInterrupted(guard->cause(),
                                           Community{{query[0]}, 0});
    }
    guard->Spend(graph.NumVertices() + 2 * graph.NumEdges());
  }

  const VertexId n = graph.NumVertices();
  std::vector<uint32_t> degree(n);
  std::vector<uint8_t> removed(n, 0);
  std::vector<VertexId> worklist;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = graph.Degree(v);
    if (degree[v] < k) {
      removed[v] = 1;
      worklist.push_back(v);
    }
  }
  for (size_t head = 0; head < worklist.size(); ++head) {
    for (VertexId w : graph.Neighbors(worklist[head])) {
      if (removed[w] == 0 && --degree[w] < k) {
        removed[w] = 1;
        worklist.push_back(w);
      }
    }
  }
  for (VertexId q : query) {
    if (removed[q] != 0) return SearchResult::MakeNotExists();
  }
  // BFS from the first query vertex over survivors; all other query
  // vertices must be reached.
  tracker.Enter(obs::Phase::kConnectivity);
  Community community;
  community.members.push_back(query[0]);
  removed[query[0]] = 2;
  uint32_t min_degree = degree[query[0]];
  for (size_t head = 0; head < community.members.size(); ++head) {
    const VertexId u = community.members[head];
    min_degree = std::min(min_degree, degree[u]);
    for (VertexId w : graph.Neighbors(u)) {
      if (removed[w] == 0) {
        removed[w] = 2;
        community.members.push_back(w);
      }
    }
  }
  for (VertexId q : query) {
    // different component
    if (removed[q] != 2) return SearchResult::MakeNotExists();
  }
  community.min_degree = min_degree;
  telemetry.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

SearchResult GlobalCsmMultiImpl(const Graph& graph,
                                const std::vector<VertexId>& query,
                                obs::QueryTelemetry& telemetry,
                                obs::PhaseTracker& tracker,
                                QueryGuard* guard) {
  CheckQuery(graph, query);
  // Feasibility is monotone decreasing in k (Proposition 1 lifts to query
  // sets verbatim), so binary search over [0, min degree of queries].
  uint32_t lo = 0;  // k = 0 always succeeds if the queries share a
                    // component; handle the disconnected case first.
  uint32_t hi = graph.Degree(query[0]);
  for (VertexId q : query) hi = std::min(hi, graph.Degree(q));
  SearchResult best =
      GlobalCstMultiImpl(graph, query, 0, telemetry, tracker, guard);
  if (best.Interrupted()) return best;
  if (!best.Found()) {
    // Queries in different components: fall back to the first query's
    // singleton (no community spans them).
    telemetry.answer_size = 1;
    return SearchResult::MakeFound(Community{{query[0]}, 0});
  }
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo + 1) / 2;
    SearchResult attempt =
        GlobalCstMultiImpl(graph, query, mid, telemetry, tracker, guard);
    if (attempt.Interrupted()) {
      // The best answer proven before the interruption is still valid.
      return SearchResult::MakeInterrupted(attempt.status,
                                           std::move(*best));
    }
    if (attempt.Found()) {
      best = std::move(attempt);
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace

SearchResult GlobalCstMulti(const Graph& graph,
                            const std::vector<VertexId>& query, uint32_t k,
                            QueryStats* stats, QueryGuard* guard,
                            obs::Recorder* recorder) {
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result =
      GlobalCstMultiImpl(graph, query, k, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, stats, rec);
  LOCS_VALIDATE_RESULT("GlobalCstMulti", graph, result, query, k);
  return result;
}

SearchResult GlobalCsmMulti(const Graph& graph,
                            const std::vector<VertexId>& query,
                            QueryStats* stats, QueryGuard* guard,
                            obs::Recorder* recorder) {
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result =
      GlobalCsmMultiImpl(graph, query, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, stats, rec);
  LOCS_VALIDATE_RESULT("GlobalCsmMulti", graph, result,
                       validate::CsmMultiQuery(result, query), 0);
  return result;
}

LocalMultiSolver::LocalMultiSolver(const Graph& graph,
                                   const OrderedAdjacency* ordered,
                                   const GraphFacts* facts)
    : graph_(graph),
      ordered_(ordered),
      facts_(facts),
      in_c_(graph.NumVertices()),
      enqueued_(graph.NumVertices()),
      peeled_(graph.NumVertices()),
      deg_in_c_(graph.NumVertices()),
      dsu_parent_(graph.NumVertices()),
      li_queue_(graph.NumVertices(), graph.MaxDegree() + 1) {}

VertexId LocalMultiSolver::Find(VertexId v) {
  // Parent stored as id+1; 0 (stale/default) means self.
  VertexId root = v;
  while (true) {
    const uint32_t p = dsu_parent_.Get(root);
    if (p == 0 || p == root + 1) break;
    root = p - 1;
  }
  // Path compression.
  while (v != root) {
    const uint32_t p = dsu_parent_.Get(v);
    dsu_parent_.Ref(v) = root + 1;
    v = p - 1;
  }
  return root;
}

void LocalMultiSolver::Union(VertexId a, VertexId b) {
  const VertexId ra = Find(a);
  const VertexId rb = Find(b);
  if (ra != rb) dsu_parent_.Ref(ra) = rb + 1;
}

void LocalMultiSolver::AddToC(VertexId v, uint32_t k, obs::PhaseStats& ph) {
  in_c_.Ref(v) = 1;
  c_members_.push_back(v);
  ++ph.vertices_visited;
  uint32_t incidence = 0;
  auto visit = [&](VertexId w) {
    ++ph.edges_scanned;
    if (in_c_.Get(w) != 0) {
      ++incidence;
      uint32_t& deg_w = deg_in_c_.Ref(w);
      if (++deg_w == k) --deficient_;
      Union(v, w);
      return;
    }
    if (enqueued_.Get(w) == 0) {
      enqueued_.Ref(w) = 1;
      ++ph.candidates_generated;
      li_queue_.Insert(w, 1);
    } else if (li_queue_.Contains(w)) {
      li_queue_.Increment(w);
    }
  };
  if (ordered_ != nullptr) {
    for (VertexId w : ordered_->Neighbors(v)) {
      if (graph_.Degree(w) < k) break;
      visit(w);
    }
  } else {
    for (VertexId w : graph_.Neighbors(v)) {
      if (graph_.Degree(w) >= k) visit(w);
    }
  }
  deg_in_c_.Ref(v) = incidence;
  if (incidence < k) ++deficient_;
}

bool LocalMultiSolver::QueriesConnected(
    const std::vector<VertexId>& query) {
  const VertexId root = Find(query[0]);
  for (size_t i = 1; i < query.size(); ++i) {
    if (Find(query[i]) != root) return false;
  }
  return true;
}

SearchResult LocalMultiSolver::CstMulti(const std::vector<VertexId>& query,
                                        uint32_t k, QueryStats* stats,
                                        QueryGuard* guard) {
  telemetry_.Reset();
  obs::PhaseTracker tracker(&telemetry_, recorder_->timing_enabled());
  SearchResult result = CstMultiImpl(query, k, guard, tracker);
  FinishQuery(result, telemetry_, tracker, stats, *recorder_);
  LOCS_VALIDATE_RESULT("LocalMultiSolver::CstMulti", graph_, result, query, k);
  return result;
}

SearchResult LocalMultiSolver::CstMultiImpl(const std::vector<VertexId>& query,
                                        uint32_t k, QueryGuard* guard,
                                        obs::PhaseTracker& tracker) {
  CheckQuery(graph_, query);
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;

  tracker.Enter(obs::Phase::kAdmission);
  if (k == 0 && query.size() == 1) {
    telemetry_.answer_size = 1;
    return SearchResult::MakeFound(Community{{query[0]}, 0});
  }
  for (VertexId q : query) {
    if (k > 0 && graph_.Degree(q) < k) return SearchResult::MakeNotExists();
  }
  if (facts_ != nullptr && facts_->connected &&
      k > MStarUpperBound(facts_->num_edges, facts_->num_vertices)) {
    return SearchResult::MakeNotExists();
  }
  if (g.Stopped()) {
    return SearchResult::MakeInterrupted(g.cause(), Community{{query[0]}, 0});
  }

  in_c_.NewEpoch();
  enqueued_.NewEpoch();
  deg_in_c_.NewEpoch();
  dsu_parent_.NewEpoch();
  li_queue_.NewEpoch();
  c_members_.clear();
  deficient_ = 0;

  // `charged` is relative to the whole accumulated telemetry (a CSM
  // binary search reuses one QueryTelemetry across probes), so the
  // baseline is the work already charged by earlier probes.
  uint64_t charged = telemetry_.TotalWork();
  auto spend = [&]() {
    const uint64_t total = telemetry_.TotalWork();
    const bool stop = g.Spend(total - charged);
    charged = total;
    return stop;
  };

  obs::PhaseStats& expansion = tracker.Enter(obs::Phase::kExpansion);
  for (VertexId q : query) {
    enqueued_.Ref(q) = 1;
  }
  for (VertexId q : query) {
    AddToC(q, k, expansion);
  }
  if (spend()) {
    return SearchResult::MakeInterrupted(g.cause(),
                                         HarvestFragment(query[0]));
  }
  while (deficient_ > 0 || !QueriesConnected(query)) {
    if (li_queue_.Empty()) return Fallback(query, k, tracker, g, charged);
    AddToC(li_queue_.PopMax(), k, expansion);
    if (spend()) {
      return SearchResult::MakeInterrupted(g.cause(),
                                           HarvestFragment(query[0]));
    }
  }

  // Early success: return the connected component of the query vertices
  // within C (other C vertices may be in separate DSU fragments).
  const VertexId root = Find(query[0]);
  Community community;
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId v : c_members_) {
    if (Find(v) == root) {
      community.members.push_back(v);
    }
  }
  // δ over the component only: recompute via membership-restricted count
  // (the deg_in_c_ values count edges to all of C, which may exceed the
  // component's internal degrees... they cannot: C components are
  // edge-disjoint, every in-C neighbor of a component member is unioned
  // into the same component).
  for (VertexId v : community.members) {
    min_degree = std::min(min_degree, deg_in_c_.Get(v));
  }
  community.min_degree = min_degree;
  telemetry_.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

Community LocalMultiSolver::HarvestFragment(VertexId anchor) {
  // Connected DSU fragment of `anchor` within C. Within a fragment,
  // deg_in_c_ is exact: every in-C neighbor of a member was unioned into
  // the same fragment, so no cross-fragment edges are counted.
  const VertexId root = Find(anchor);
  Community partial;
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId v : c_members_) {
    if (Find(v) == root) {
      partial.members.push_back(v);
      min_degree = std::min(min_degree, deg_in_c_.Get(v));
    }
  }
  partial.min_degree = partial.members.empty() ? 0 : min_degree;
  return partial;
}

Community LocalMultiSolver::HarvestUnpeeled(VertexId anchor) {
  // Component of `anchor` over candidates the (interrupted) peel has not
  // yet removed, with induced degrees recounted against the reached marks
  // (deg_in_c_ is stale mid-peel).
  Community partial;
  partial.members.push_back(anchor);
  peeled_.Ref(anchor) = 2;
  for (size_t head = 0; head < partial.members.size(); ++head) {
    for (VertexId w : graph_.Neighbors(partial.members[head])) {
      if (in_c_.Get(w) != 0 && peeled_.Get(w) == 0) {
        peeled_.Ref(w) = 2;
        partial.members.push_back(w);
      }
    }
  }
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId u : partial.members) {
    uint32_t degree = 0;
    for (VertexId w : graph_.Neighbors(u)) {
      degree += peeled_.Get(w) == 2 ? 1u : 0u;
    }
    min_degree = std::min(min_degree, degree);
  }
  partial.min_degree = min_degree;
  return partial;
}

SearchResult LocalMultiSolver::Fallback(const std::vector<VertexId>& query,
                                        uint32_t k,
                                        obs::PhaseTracker& tracker,
                                        QueryGuard& guard,
                                        uint64_t& charged) {
  telemetry_.used_global_fallback = true;
  obs::PhaseStats& peel_ph = tracker.Enter(obs::Phase::kCoreDecomposition);
  auto spend = [&]() {
    const uint64_t total = telemetry_.TotalWork();
    const bool stop = guard.Spend(total - charged);
    charged = total;
    return stop;
  };
  peeled_.NewEpoch();
  peel_worklist_.clear();
  for (VertexId v : c_members_) {
    if (deg_in_c_.Get(v) < k) {
      peeled_.Ref(v) = 1;
      peel_worklist_.push_back(v);
    }
  }
  for (size_t head = 0; head < peel_worklist_.size(); ++head) {
    for (VertexId w : graph_.Neighbors(peel_worklist_[head])) {
      ++peel_ph.edges_scanned;
      if (in_c_.Get(w) == 0 || peeled_.Get(w) != 0) continue;
      if (--deg_in_c_.Ref(w) < k) {
        peeled_.Ref(w) = 1;
        peel_worklist_.push_back(w);
      }
    }
    if (spend()) {
      // A peeled query vertex is an exact negative even mid-peel (peel
      // removals are sound); otherwise degrade to the first query
      // vertex's component of the survivors.
      for (VertexId q : query) {
        if (peeled_.Get(q) == 1) return SearchResult::MakeNotExists();
      }
      return SearchResult::MakeInterrupted(guard.cause(),
                                           HarvestUnpeeled(query[0]));
    }
  }
  for (VertexId q : query) {
    if (peeled_.Get(q) != 0) return SearchResult::MakeNotExists();
  }
  obs::PhaseStats& bfs_ph = tracker.Enter(obs::Phase::kConnectivity);
  Community community;
  community.members.push_back(query[0]);
  peeled_.Ref(query[0]) = 2;
  uint32_t min_degree = ~uint32_t{0};
  for (size_t head = 0; head < community.members.size(); ++head) {
    const VertexId u = community.members[head];
    min_degree = std::min(min_degree, deg_in_c_.Get(u));
    for (VertexId w : graph_.Neighbors(u)) {
      ++bfs_ph.edges_scanned;
      if (in_c_.Get(w) != 0 && peeled_.Get(w) == 0) {
        peeled_.Ref(w) = 2;
        community.members.push_back(w);
      }
    }
    if (spend()) {
      // Partial BFS set: connected, contains query[0]; recount degrees
      // against the reached marks.
      uint32_t partial_min = ~uint32_t{0};
      for (VertexId x : community.members) {
        uint32_t deg = 0;
        for (VertexId w : graph_.Neighbors(x)) {
          deg += peeled_.Get(w) == 2 ? 1u : 0u;
        }
        partial_min = std::min(partial_min, deg);
      }
      community.min_degree = partial_min;
      return SearchResult::MakeInterrupted(guard.cause(),
                                           std::move(community));
    }
  }
  for (VertexId q : query) {
    if (peeled_.Get(q) != 2) return SearchResult::MakeNotExists();
  }
  community.min_degree = min_degree;
  telemetry_.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

SearchResult LocalMultiSolver::CsmMulti(const std::vector<VertexId>& query,
                                        QueryStats* stats,
                                        QueryGuard* guard) {
  telemetry_.Reset();
  obs::PhaseTracker tracker(&telemetry_, recorder_->timing_enabled());
  SearchResult result = CsmMultiImpl(query, guard, tracker);
  FinishQuery(result, telemetry_, tracker, stats, *recorder_);
  LOCS_VALIDATE_RESULT("LocalMultiSolver::CsmMulti", graph_, result,
                       validate::CsmMultiQuery(result, query), 0);
  return result;
}

SearchResult LocalMultiSolver::CsmMultiImpl(
    const std::vector<VertexId>& query, QueryGuard* guard,
    obs::PhaseTracker& tracker) {
  CheckQuery(graph_, query);
  uint32_t hi = graph_.Degree(query[0]);
  for (VertexId q : query) hi = std::min(hi, graph_.Degree(q));
  if (facts_ != nullptr && facts_->connected) {
    hi = std::min(hi,
                  MStarUpperBound(facts_->num_edges, facts_->num_vertices));
  }
  // One shared guard spans every CST probe of the binary search, exactly
  // like wall-clock time would; the probes also share this query's
  // telemetry, so effort accumulates across the whole search.
  SearchResult best = CstMultiImpl(query, 0, guard, tracker);
  LOCS_VALIDATE_RESULT("LocalMultiSolver::CsmMulti[probe]", graph_, best,
                       query, 0u);
  if (best.Interrupted()) return best;
  if (!best.Found()) {
    telemetry_.answer_size = 1;
    return SearchResult::MakeFound(Community{{query[0]}, 0});
  }
  uint32_t lo = 0;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo + 1) / 2;
    SearchResult attempt = CstMultiImpl(query, mid, guard, tracker);
    LOCS_VALIDATE_RESULT("LocalMultiSolver::CsmMulti[probe]", graph_,
                         attempt, query, mid);
    if (attempt.Interrupted()) {
      // The best answer proven before the interruption is still valid.
      return SearchResult::MakeInterrupted(attempt.status, std::move(*best));
    }
    if (attempt.Found()) {
      best = std::move(attempt);
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace locs
