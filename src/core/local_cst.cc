#include "core/local_cst.h"

#include <algorithm>
#include <span>

#include "core/bounds.h"
#include "core/kcore.h"
#include "core/validate.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "util/prefetch.h"

namespace locs {

GraphFacts GraphFacts::Compute(const Graph& graph) {
  GraphFacts facts;
  facts.num_vertices = graph.NumVertices();
  facts.num_edges = graph.NumEdges();
  facts.max_degree = graph.MaxDegree();
  if (graph.NumVertices() == 0) {
    facts.connected = true;
  } else {
    facts.connected =
        BfsOrder(graph, 0).size() == graph.NumVertices();
  }
  return facts;
}

LocalCstSolver::LocalCstSolver(const Graph& graph,
                               const OrderedAdjacency* ordered,
                               const GraphFacts* facts)
    : graph_(graph),
      ordered_(ordered),
      facts_(facts),
      c_deg_(graph.NumVertices()),
      enqueued_(graph.NumVertices()),
      peeled_(graph.NumVertices()),
      cursor_(graph.NumVertices()),
      li_queue_(graph.NumVertices(), graph.MaxDegree() + 1),
      lg_sources_(graph.NumVertices(), graph.MaxDegree() + 1) {}

SearchResult LocalCstSolver::Solve(VertexId v0, uint32_t k,
                                   const CstOptions& options,
                                   QueryStats* stats, QueryGuard* guard) {
  telemetry_.Reset();
  obs::PhaseTracker tracker(&telemetry_, recorder_->timing_enabled());
  SearchResult result = SolveImpl(v0, k, options, guard, tracker);
  tracker.Finish();
  result.telemetry = telemetry_;
  if (stats != nullptr) *stats = ToQueryStats(telemetry_);
  recorder_->Record(telemetry_);
  LOCS_VALIDATE_RESULT("LocalCstSolver::Solve", graph_, result, v0, k);
  return result;
}

SearchResult LocalCstSolver::SolveImpl(VertexId v0, uint32_t k,
                                       const CstOptions& options,
                                       QueryGuard* guard,
                                       obs::PhaseTracker& tracker) {
  LOCS_CHECK_LT(v0, graph_.NumVertices());
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;

  obs::PhaseStats& admission = tracker.Enter(obs::Phase::kAdmission);
  // Trivial threshold: the singleton community qualifies.
  if (k == 0) {
    admission.vertices_visited = 1;
    telemetry_.answer_size = 1;
    return SearchResult::MakeFound(Community{{v0}, 0});
  }
  // Proposition 3: v0 itself must have degree >= k.
  if (graph_.Degree(v0) < k) return SearchResult::MakeNotExists();
  // Theorem 3 admission test (valid on connected graphs only).
  if (facts_ != nullptr && facts_->connected &&
      k > MStarUpperBound(facts_->num_edges, facts_->num_vertices)) {
    return SearchResult::MakeNotExists();
  }
  // A guard that tripped before this query even started (e.g. shared batch
  // deadline already expired) degrades to the singleton partial answer.
  if (g.Stopped()) {
    return SearchResult::MakeInterrupted(g.cause(), Community{{v0}, 0});
  }

  const bool use_ordered = ordered_ != nullptr;

  // Reset per-query state in O(1).
  c_deg_.NewEpoch();
  enqueued_.NewEpoch();
  cursor_.NewEpoch();
  li_queue_.NewEpoch();
  lg_sources_.NewEpoch();
  fifo_.clear();
  fifo_head_ = 0;
  c_members_.clear();
  deficient_ = 0;

  // Guard accounting: charge the work delta after every expansion step.
  // The guard amortizes the expensive checks internally, so the per-step
  // cost here is a few adds and one compare. TotalWork sums the same
  // increments the pre-obs counters held, so trip points are unchanged.
  uint64_t charged = 0;
  auto spend = [&]() {
    const uint64_t total = telemetry_.TotalWork();
    const bool stop = g.Spend(total - charged);
    charged = total;
    return stop;
  };

  obs::PhaseStats& expansion = tracker.Enter(obs::Phase::kExpansion);
  enqueued_.Set(v0);
  AddToC(v0, k, options.strategy, use_ordered, expansion);
  if (spend()) {
    return SearchResult::MakeInterrupted(g.cause(), HarvestExpansion());
  }
  while (deficient_ > 0) {
    const VertexId next = SelectNext(options.strategy, k, use_ordered);
    if (next == kInvalidVertex) {
      // Candidates exhausted: global peel on G[C] (Proposition 4). Because
      // the candidate generation never skips a vertex of degree >= k that
      // is reachable through such vertices, C contains the whole k-core
      // component of v0 and the fallback answer is exact.
      return GlobalFallback(v0, k, tracker, g, charged);
    }
    AddToC(next, k, options.strategy, use_ordered, expansion);
    if (spend()) {
      return SearchResult::MakeInterrupted(g.cause(), HarvestExpansion());
    }
  }

  // Early success: δ(G[C]) >= k. Report the exact minimum degree.
  Community community;
  community.members = c_members_;
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId v : c_members_) {
    min_degree = std::min(min_degree, c_deg_.Get(v));
  }
  community.min_degree = min_degree;
  telemetry_.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

Community LocalCstSolver::HarvestExpansion() const {
  // During expansion the candidate set C is always connected (vertices are
  // only ever discovered as neighbors of C) and contains v0, and c_deg_
  // holds the exact induced degrees — so C itself is the best connected
  // community so far.
  Community partial;
  partial.members = c_members_;
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId v : c_members_) {
    min_degree = std::min(min_degree, c_deg_.Get(v));
  }
  partial.min_degree = c_members_.empty() ? 0 : min_degree;
  return partial;
}

void LocalCstSolver::AddToC(VertexId v, uint32_t k, Strategy strategy,
                            bool use_ordered, obs::PhaseStats& ph) {
  c_deg_.Set(v, 0);  // marks v ∈ C; the exact incidence is written below
  c_members_.push_back(v);
  ++ph.vertices_visited;

  uint32_t incidence = 0;
  auto visit_neighbor = [&](VertexId w) {
    ++ph.edges_scanned;
    if (c_deg_.Fresh(w)) {
      // One packed probe answers both "w ∈ C?" and its induced degree.
      ++incidence;
      const uint32_t deg_w = c_deg_.Get(w) + 1;
      c_deg_.Set(w, deg_w);
      if (deg_w == k) --deficient_;
      if (strategy == Strategy::kLG) lg_sources_.IncrementIfPresent(w);
      return;
    }
    if (strategy == Strategy::kLI) {
      // Single-probe frontier upkeep: the queue's own stamps already
      // encode "discovered this query" (popped vertices go straight into
      // C, so tombstones are unreachable here), and the naive fifo is
      // never consulted under li — no per-candidate bookkeeping beyond
      // the one bucket cell.
      if (li_queue_.IncrementOrInsert(w, 1, [] { return true; }) ==
          EpochBucketList::Probe::kInserted) {
        ++ph.candidates_generated;
      }
      return;
    }
    if (enqueued_.TestAndSet(w)) {
      ++ph.candidates_generated;
      fifo_.push_back(w);
    }
  };

  // Three independent random-access streams per neighbor: the CSR
  // offsets (degree probe), the packed c_deg_ cells, and — under li —
  // the frontier's bucket cells. Each gets its own prefetch ahead of
  // the sequential neighbor scan.
  const uint64_t* const offsets = graph_.offsets().data();
  auto prefetch_ahead = [&](VertexId ahead, Strategy s) {
    LOCS_PREFETCH(offsets + ahead);
    c_deg_.Prefetch(ahead);
    if (s == Strategy::kLI) li_queue_.Prefetch(ahead);
  };
  if (use_ordered) {
    // Neighbors sorted by descending degree: stop at the first one below k
    // (§4.3.2) — everything after it is prunable by Proposition 3.
    const std::span<const VertexId> nbrs = ordered_->Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPrefetchDistance < nbrs.size()) {
        prefetch_ahead(nbrs[i + kPrefetchDistance], strategy);
      }
      const VertexId w = nbrs[i];
      if (graph_.Degree(w) < k) {
        ++ph.candidates_rejected;
        break;
      }
      visit_neighbor(w);
    }
  } else {
    const std::span<const VertexId> nbrs = graph_.Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPrefetchDistance < nbrs.size()) {
        prefetch_ahead(nbrs[i + kPrefetchDistance], strategy);
      }
      const VertexId w = nbrs[i];
      if (graph_.Degree(w) < k) {
        ++ph.edges_scanned;
        ++ph.candidates_rejected;
        continue;
      }
      visit_neighbor(w);
    }
  }

  c_deg_.Set(v, incidence);
  if (incidence < k) ++deficient_;
  if (strategy == Strategy::kLG) {
    lg_sources_.Insert(v, incidence);
    cursor_.Set(v, 0);
  }
}

VertexId LocalCstSolver::SelectNext(Strategy strategy, uint32_t k,
                                    bool use_ordered) {
  switch (strategy) {
    case Strategy::kNaive:
      while (fifo_head_ < fifo_.size()) {
        const VertexId v = fifo_[fifo_head_++];
        if (!c_deg_.Fresh(v)) return v;
      }
      return kInvalidVertex;
    case Strategy::kLI:
      if (li_queue_.Empty()) return kInvalidVertex;
      return li_queue_.PopMax();
    case Strategy::kLG:
      return SelectLg(k, use_ordered);
  }
  return kInvalidVertex;
}

VertexId LocalCstSolver::SelectLg(uint32_t k, bool use_ordered) {
  // Pick a frontier vertex adjacent to a minimum-degree member of C — the
  // selection the paper shows to be equivalent to the largest-increment-of-
  // goodness priority (f(v) is always 0 or 1). Each member keeps a cursor
  // into its adjacency so the total scan over a query is O(m').
  while (!lg_sources_.Empty()) {
    const VertexId u = lg_sources_.MinElement();
    const auto nbrs =
        use_ordered ? ordered_->Neighbors(u) : graph_.Neighbors(u);
    uint32_t cur = cursor_.Get(u);
    bool exhausted = true;
    while (cur < nbrs.size()) {
      const VertexId w = nbrs[cur];
      if (graph_.Degree(w) < k) {
        if (use_ordered) {
          // Degree-sorted list: nothing eligible remains.
          cur = static_cast<uint32_t>(nbrs.size());
          break;
        }
        ++cur;
        continue;
      }
      if (c_deg_.Fresh(w)) {
        ++cur;
        continue;
      }
      // Frontier vertex adjacent to a minimum-degree member found.
      cursor_.Set(u, cur);
      exhausted = false;
      break;
    }
    if (exhausted) {
      cursor_.Set(u, cur);
      // u has no unexplored eligible neighbors left; it can no longer act
      // as a selection source (it stays a C member regardless).
      lg_sources_.Erase(u);
      continue;
    }
    return nbrs[cur];
  }
  // No minimum-degree member offers a frontier neighbor: fall back to the
  // discovery (FIFO) order.
  while (fifo_head_ < fifo_.size()) {
    const VertexId v = fifo_[fifo_head_++];
    if (!c_deg_.Fresh(v)) return v;
  }
  return kInvalidVertex;
}

SearchResult LocalCstSolver::GlobalFallback(VertexId v0, uint32_t k,
                                            obs::PhaseTracker& tracker,
                                            QueryGuard& guard,
                                            uint64_t& charged) {
  // Global peel restricted to G[C] (line 6 of Algorithm 2), done in place:
  // c_deg_ already holds the induced degrees, so the k-core of G[C] is
  // a plain worklist peel over C — no subgraph is materialized and the
  // cost stays O(|C| + edges(C)).
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
    if (c_deg_.Get(v) < k) {
      peeled_.Set(v, 1);
      peel_worklist_.push_back(v);
    }
  }
  for (size_t head = 0; head < peel_worklist_.size(); ++head) {
    const VertexId v = peel_worklist_[head];
    const std::span<const VertexId> nbrs = graph_.Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPrefetchDistance < nbrs.size()) {
        const VertexId ahead = nbrs[i + kPrefetchDistance];
        c_deg_.Prefetch(ahead);
        peeled_.Prefetch(ahead);
      }
      const VertexId w = nbrs[i];
      ++peel_ph.edges_scanned;
      if (!c_deg_.Fresh(w) || peeled_.Get(w) != 0) continue;
      const uint32_t deg_w = c_deg_.Get(w) - 1;
      c_deg_.Set(w, deg_w);
      if (deg_w < k) {
        peeled_.Set(w, 1);
        peel_worklist_.push_back(w);
      }
    }
    if (spend()) {
      // Peel removals are sound even mid-peel: a peeled vertex provably
      // belongs to no k-core of G[C], and C contains the whole k-core
      // component of v0 — so a peeled v0 is an exact negative despite the
      // interruption. Otherwise degrade to the component of v0 among the
      // still-unpeeled candidates.
      if (peeled_.Get(v0) == 1) return SearchResult::MakeNotExists();
      return SearchResult::MakeInterrupted(guard.cause(),
                                           HarvestUnpeeled(v0));
    }
  }
  if (peeled_.Get(v0) != 0) return SearchResult::MakeNotExists();

  // BFS from v0 over the surviving candidates. Reuse peeled_ as the
  // visited mark (2 = reached).
  obs::PhaseStats& bfs_ph = tracker.Enter(obs::Phase::kConnectivity);
  Community community;
  community.members.push_back(v0);
  peeled_.Set(v0, 2);
  uint32_t min_degree = ~uint32_t{0};
  for (size_t head = 0; head < community.members.size(); ++head) {
    const VertexId u = community.members[head];
    min_degree = std::min(min_degree, c_deg_.Get(u));
    for (VertexId w : graph_.Neighbors(u)) {
      ++bfs_ph.edges_scanned;
      if (c_deg_.Fresh(w) && peeled_.Get(w) == 0) {
        peeled_.Set(w, 2);
        community.members.push_back(w);
      }
    }
    if (spend()) {
      // The partially-collected BFS set is connected and contains v0; its
      // induced degrees must be recounted against the reached marks.
      community.min_degree = InducedMinDegree(community.members, 2);
      return SearchResult::MakeInterrupted(guard.cause(),
                                           std::move(community));
    }
  }
  community.min_degree = min_degree;
  telemetry_.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

Community LocalCstSolver::HarvestUnpeeled(VertexId v0) {
  // Connected component of v0 over candidates the (interrupted) peel has
  // not yet removed; marks reached vertices with 2 so the induced degrees
  // can be recounted exactly. c_deg_ is NOT usable here — mid-peel it
  // still counts edges to peeled-but-unprocessed vertices.
  Community partial;
  partial.members.push_back(v0);
  peeled_.Set(v0, 2);
  for (size_t head = 0; head < partial.members.size(); ++head) {
    for (VertexId w : graph_.Neighbors(partial.members[head])) {
      if (c_deg_.Fresh(w) && peeled_.Get(w) == 0) {
        peeled_.Set(w, 2);
        partial.members.push_back(w);
      }
    }
  }
  partial.min_degree = InducedMinDegree(partial.members, 2);
  return partial;
}

uint32_t LocalCstSolver::InducedMinDegree(const std::vector<VertexId>& members,
                                          uint32_t mark) const {
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId u : members) {
    uint32_t degree = 0;
    for (VertexId w : graph_.Neighbors(u)) {
      degree += peeled_.Get(w) == mark ? 1u : 0u;
    }
    min_degree = std::min(min_degree, degree);
  }
  return members.empty() ? 0 : min_degree;
}

}  // namespace locs
