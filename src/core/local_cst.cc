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

void CheckQuerySet(const Graph& graph, std::span<const VertexId> query) {
  LOCS_CHECK(!query.empty());
  std::vector<VertexId> sorted(query.begin(), query.end());
  std::sort(sorted.begin(), sorted.end());
  LOCS_CHECK_LT(sorted.back(), graph.NumVertices());
  LOCS_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 "duplicate query vertex");
}

LocalCstSolver::LocalCstSolver(const Graph& graph,
                               const OrderedAdjacency* ordered,
                               const GraphFacts* facts,
                               std::span<const uint32_t> core)
    : graph_(graph),
      ordered_(ordered),
      facts_(facts),
      core_(core),
      c_deg_(graph.NumVertices()),
      enqueued_(graph.NumVertices()),
      peeled_(graph.NumVertices()),
      cursor_(graph.NumVertices()),
      li_queue_(graph.NumVertices(), graph.MaxDegree(),
                2 * graph.NumEdges()),
      lg_sources_(graph.NumVertices(), graph.MaxDegree() + 1) {
  LOCS_CHECK(core.empty() || core.size() == graph.NumVertices());
}

SearchResult LocalCstSolver::Solve(VertexId v0, uint32_t k,
                                   const CstOptions& options, QueryStats*,
                                   QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph_.NumVertices());
  telemetry_.Reset();
  obs::PhaseTracker tracker(&telemetry_, recorder_->timing_enabled());
  SearchResult result = SolveImpl({&v0, 1}, k, options, guard, tracker);
  FinishQuery(result, telemetry_, tracker, *recorder_);
  LOCS_VALIDATE_RESULT("LocalCstSolver::Solve", graph_, result, v0, k);
  return result;
}

SearchResult LocalCstSolver::CstMulti(const std::vector<VertexId>& query,
                                      uint32_t k, QueryStats*,
                                      QueryGuard* guard) {
  CheckQuerySet(graph_, query);
  telemetry_.Reset();
  obs::PhaseTracker tracker(&telemetry_, recorder_->timing_enabled());
  SearchResult result = SolveImpl(query, k, {}, guard, tracker);
  FinishQuery(result, telemetry_, tracker, *recorder_);
  LOCS_VALIDATE_RESULT("LocalCstSolver::CstMulti", graph_, result, query, k);
  return result;
}

SearchResult LocalCstSolver::CsmMulti(const std::vector<VertexId>& query,
                                      QueryGuard* guard) {
  CheckQuerySet(graph_, query);
  telemetry_.Reset();
  obs::PhaseTracker tracker(&telemetry_, recorder_->timing_enabled());
  SearchResult result = CsmMultiImpl(query, guard, tracker);
  FinishQuery(result, telemetry_, tracker, *recorder_);
  LOCS_VALIDATE_RESULT("LocalCstSolver::CsmMulti", graph_, result,
                       validate::CsmMultiQuery(result, query), 0);
  return result;
}

SearchResult LocalCstSolver::SolveImpl(std::span<const VertexId> seeds,
                                       uint32_t k, const CstOptions& options,
                                       QueryGuard* guard,
                                       obs::PhaseTracker& tracker) {
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  const VertexId v0 = seeds[0];
  const bool multi = seeds.size() > 1;

  obs::PhaseStats& admission = tracker.Enter(obs::Phase::kAdmission);
  // Trivial threshold: the singleton community qualifies (a query set
  // still has to be connected).
  if (k == 0 && !multi) {
    admission.vertices_visited = 1;
    telemetry_.answer_size = 1;
    return SearchResult::MakeFound(Community{{v0}, 0});
  }
  // Proposition 3: every query vertex must have degree >= k (and, given
  // core numbers, lie in the k-core: Lemma 3).
  for (VertexId s : seeds) {
    if (graph_.Degree(s) < k || OutsideCore(s, k)) {
      return SearchResult::MakeNotExists();
    }
  }
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
  fragments_ = 1;
  if (multi) {
    if (!fragment_parent_) fragment_parent_.emplace(graph_.NumVertices());
    fragment_parent_->NewEpoch();
    fragments_ = 0;  // JoinFragments counts each seed in
  }

  // Guard accounting: charge the work delta after every expansion step.
  // The guard amortizes the expensive checks internally, so the per-step
  // cost here is a few adds and one compare. The baseline is the work
  // already charged: a CsmMulti binary search runs its probes on one
  // QueryTelemetry (a fresh query starts from zero).
  uint64_t charged = telemetry_.TotalWork();
  auto spend = [&]() {
    const uint64_t total = telemetry_.TotalWork();
    const bool stop = g.Spend(total - charged);
    charged = total;
    return stop;
  };

  obs::PhaseStats& expansion = tracker.Enter(obs::Phase::kExpansion);
  auto add_to_c = [&](VertexId v) {  // AddToC is compiled per strategy
    switch (options.strategy) {
      case Strategy::kNaive: return AddToC<Strategy::kNaive>(v, k, expansion);
      case Strategy::kLG: return AddToC<Strategy::kLG>(v, k, expansion);
      case Strategy::kLI: return AddToC<Strategy::kLI>(v, k, expansion);
    }
  };
  for (VertexId s : seeds) {
    enqueued_.Set(s);
    // A seed not yet in C must never enter the li queue: the tombstone
    // makes IncrementOrInsert skip it, as enqueued_ does for the naive and
    // lg frontiers.
    if (multi) li_queue_.Tombstone(s);
  }
  for (VertexId s : seeds) {
    add_to_c(s);
    if (multi) JoinFragments(s, k);
  }
  if (spend()) {
    return SearchResult::MakeInterrupted(g.cause(), HarvestExpansion(v0));
  }
  while (deficient_ > 0 || fragments_ > 1) {
    const VertexId next = SelectNext(options.strategy, k, use_ordered);
    if (next == kInvalidVertex) {
      if (!core_.empty()) {
        // Core-pruned: C is closed under k-core neighbors, so it is the
        // union of the seeds' k-core components and every member already
        // has induced degree >= k. Only disconnected seeds get here, and
        // no community spans them.
        LOCS_DCHECK(deficient_ == 0);
        LOCS_DCHECK(fragments_ > 1);
        return SearchResult::MakeNotExists();
      }
      // Candidates exhausted: global peel on G[C] (Proposition 4). Because
      // the candidate generation never skips a vertex of degree >= k that
      // is reachable through such vertices, C contains the whole k-core
      // component of every seed and the fallback answer is exact.
      return GlobalFallback(seeds, k, tracker, g, charged);
    }
    add_to_c(next);
    // Once C is one fragment it stays one: every later vertex joins as a
    // neighbor of C.
    if (fragments_ > 1) JoinFragments(next, k);
    if (spend()) {
      return SearchResult::MakeInterrupted(g.cause(), HarvestExpansion(v0));
    }
  }

  // Early success: δ(G[C]) >= k and C connects the seeds. Report the exact
  // minimum degree.
  Community community = HarvestExpansion(v0);
  telemetry_.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

SearchResult LocalCstSolver::CsmMultiImpl(const std::vector<VertexId>& query,
                                          QueryGuard* guard,
                                          obs::PhaseTracker& tracker) {
  uint32_t hi = graph_.Degree(query[0]);
  for (VertexId q : query) hi = std::min(hi, graph_.Degree(q));
  if (facts_ != nullptr && facts_->connected) {
    hi = std::min(hi,
                  MStarUpperBound(facts_->num_edges, facts_->num_vertices));
  }
  // One shared guard spans every CST probe of the binary search, exactly
  // like wall-clock time would; the probes also share this query's
  // telemetry, so effort accumulates across the whole search.
  SearchResult best = SolveImpl(query, 0, {}, guard, tracker);
  LOCS_VALIDATE_RESULT("LocalCstSolver::CsmMulti[probe]", graph_, best,
                       query, 0u);
  if (best.Interrupted()) return best;
  if (!best.Found()) {
    telemetry_.answer_size = 1;
    return SearchResult::MakeFound(Community{{query[0]}, 0});
  }
  uint32_t lo = 0;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo + 1) / 2;
    SearchResult attempt = SolveImpl(query, mid, {}, guard, tracker);
    LOCS_VALIDATE_RESULT("LocalCstSolver::CsmMulti[probe]", graph_,
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

void LocalCstSolver::JoinFragments(VertexId v, uint32_t k) {
  // v enters G[C] as a fragment of its own, rooted at v, and absorbs the
  // fragment of every in-C neighbor. A separate pass keeps AddToC's scan
  // untouched; AddToC already charged these edges. Every C member has
  // degree >= k, so a degree-sorted list can stop where AddToC's did.
  ++fragments_;
  const std::span<const VertexId> nbrs =
      ordered_ != nullptr ? ordered_->Neighbors(v) : graph_.Neighbors(v);
  for (VertexId w : nbrs.first(BreakIndex(nbrs, k))) {
    if (OutsideCore(w, k) || !c_deg_.Fresh(w)) continue;
    const VertexId root_w = FindFragment(w);
    if (root_w != v) {
      fragment_parent_->Set(root_w, v + 1);
      --fragments_;
    }
  }
}

VertexId LocalCstSolver::FindFragment(VertexId v) {
  EpochU32Array& parent = *fragment_parent_;
  VertexId root = v;
  while (parent.Get(root) != 0) root = parent.Get(root) - 1;
  while (v != root) {  // path compression
    const VertexId next = parent.Get(v) - 1;
    parent.Set(v, root + 1);
    v = next;
  }
  return root;
}

Community LocalCstSolver::HarvestExpansion(VertexId anchor) {
  // During expansion every fragment of G[C] is connected (vertices are only
  // ever discovered as neighbors of C) and holds a seed, and c_deg_ holds
  // exact induced degrees (an in-C neighbor shares the fragment). One
  // fragment is all of C — always so for a single seed — and is the best
  // connected community so far; with several, harvest the anchor's.
  Community partial;
  if (fragments_ == 1) {
    partial.members = c_members_;
  } else {
    const VertexId root = FindFragment(anchor);
    for (VertexId v : c_members_) {
      if (FindFragment(v) == root) partial.members.push_back(v);
    }
  }
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId v : partial.members) {
    min_degree = std::min(min_degree, c_deg_.Get(v));
  }
  partial.min_degree = min_degree;
  return partial;
}

size_t LocalCstSolver::BreakIndex(std::span<const VertexId> nbrs,
                                  uint32_t k) const {
  if (ordered_ == nullptr) return nbrs.size();
  const auto brk =
      std::partition_point(nbrs.begin(), nbrs.end(),
                           [&](VertexId w) { return graph_.Degree(w) >= k; });
  return static_cast<size_t>(brk - nbrs.begin());
}

template <Strategy kStrategy>
void LocalCstSolver::AddToC(VertexId v, uint32_t k, obs::PhaseStats& ph) {
  c_deg_.Set(v, 0);  // marks v ∈ C; the exact incidence is written below
  c_members_.push_back(v);
  ++ph.vertices_visited;

  // A degree-sorted list stops at the break (§4.3.2), one rejected
  // candidate; the plain list is scanned whole, testing each degree.
  const bool use_ordered = ordered_ != nullptr;
  const std::span<const VertexId> nbrs =
      use_ordered ? ordered_->Neighbors(v) : graph_.Neighbors(v);
  const size_t end = BreakIndex(nbrs, k);
  // Counters and the core numbers' pointer live in locals: the phase's
  // uint64_t fields and the span's size may alias the scratch cells.
  uint64_t rejected = end < nbrs.size() ? 1 : 0;
  uint64_t generated = 0;
  uint32_t incidence = 0;
  const uint32_t* const core = core_.empty() ? nullptr : core_.data();

  // Up to four random-access streams per neighbor, each prefetched: the
  // CSR offsets (plain list), core numbers, c_deg_ and li's key cells.
  const uint64_t* const offsets = graph_.offsets().data();
  for (size_t i = 0; i < end; ++i) {
    if (i + kPrefetchDistance < end) {
      const VertexId ahead = nbrs[i + kPrefetchDistance];
      if (!use_ordered) LOCS_PREFETCH(offsets + ahead);
      if (core != nullptr) LOCS_PREFETCH(core + ahead);
      c_deg_.Prefetch(ahead);
      if constexpr (kStrategy == Strategy::kLI) li_queue_.Prefetch(ahead);
    }
    const VertexId w = nbrs[i];
    // Core numbers are not sorted with degree: skip, do not stop.
    if ((!use_ordered && graph_.Degree(w) < k) ||
        (core != nullptr && core[w] < k)) {
      ++rejected;
      continue;
    }
    if (c_deg_.Fresh(w)) {
      // One packed probe answers both "w ∈ C?" and its induced degree.
      ++incidence;
      const uint32_t deg_w = c_deg_.Get(w) + 1;
      c_deg_.Set(w, deg_w);
      if (deg_w == k) --deficient_;
      if constexpr (kStrategy == Strategy::kLG) {
        lg_sources_.IncrementIfPresent(w);
      }
      continue;
    }
    if constexpr (kStrategy == Strategy::kLI) {
      // The key cells encode "discovered this query"; popped vertices go
      // straight into C, so only seed tombstones are skipped here.
      if (li_queue_.IncrementOrInsert(w)) ++generated;
    } else if (enqueued_.TestAndSet(w)) {
      ++generated;
      fifo_.push_back(w);
    }
  }
  ph.edges_scanned += end;
  ph.candidates_rejected += rejected;
  ph.candidates_generated += generated;

  c_deg_.Set(v, incidence);
  if (incidence < k) ++deficient_;
  if constexpr (kStrategy == Strategy::kLG) {
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
    // Nothing past the break of a degree-sorted list is eligible.
    const size_t end = BreakIndex(nbrs, k);
    uint32_t cur = cursor_.Get(u);
    while (cur < end) {
      const VertexId w = nbrs[cur];
      // Stop at a frontier vertex adjacent to a minimum-degree member.
      if ((use_ordered || graph_.Degree(w) >= k) && !OutsideCore(w, k) &&
          !c_deg_.Fresh(w)) {
        break;
      }
      ++cur;
    }
    cursor_.Set(u, cur);
    if (cur == end) {
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

SearchResult LocalCstSolver::GlobalFallback(std::span<const VertexId> seeds,
                                            uint32_t k,
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
  auto any_seed_peeled = [&]() {
    return std::any_of(seeds.begin(), seeds.end(),
                       [&](VertexId s) { return peeled_.Get(s) != 0; });
  };
  const VertexId v0 = seeds[0];
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
      // component of every seed — so a peeled seed is an exact negative
      // despite the interruption. Otherwise degrade to the component of
      // seeds[0] among the still-unpeeled candidates.
      if (any_seed_peeled()) return SearchResult::MakeNotExists();
      return SearchResult::MakeInterrupted(guard.cause(),
                                           HarvestUnpeeled(v0));
    }
  }
  if (any_seed_peeled()) return SearchResult::MakeNotExists();

  // BFS from seeds[0] over the surviving candidates; every other seed must
  // be reached. Reuse peeled_ as the visited mark (2 = reached).
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
      // The partially-collected BFS set is connected and contains seeds[0];
      // its induced degrees must be recounted against the reached marks.
      community.min_degree = InducedMinDegree(community.members, 2);
      return SearchResult::MakeInterrupted(guard.cause(),
                                           std::move(community));
    }
  }
  for (VertexId s : seeds) {
    if (peeled_.Get(s) != 2) return SearchResult::MakeNotExists();
  }
  community.min_degree = min_degree;
  telemetry_.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

Community LocalCstSolver::HarvestUnpeeled(VertexId anchor) {
  // Connected component of `anchor` over candidates the (interrupted) peel
  // has not yet removed; marks reached vertices with 2 so the induced
  // degrees can be recounted exactly. c_deg_ is NOT usable here — mid-peel
  // it still counts edges to peeled-but-unprocessed vertices.
  Community partial;
  partial.members.push_back(anchor);
  peeled_.Set(anchor, 2);
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
