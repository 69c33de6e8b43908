#include "core/local_csm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "core/bounds.h"
#include "core/kcore.h"
#include "core/validate.h"
#include "graph/subgraph.h"
#include "util/bucket_queue.h"
#include "util/prefetch.h"

namespace locs {

LocalCsmSolver::LocalCsmSolver(const Graph& graph,
                               const OrderedAdjacency* ordered,
                               const GraphFacts* facts)
    : graph_(graph),
      ordered_(ordered),
      facts_(facts),
      a_deg_(graph.NumVertices()),
      bfs_seen_(graph.NumVertices()),
      local_id_(graph.NumVertices()),
      frontier_(graph.NumVertices(), graph.MaxDegree() + 1),
      degree_count_(static_cast<size_t>(graph.MaxDegree()) + 2, 0) {}

void LocalCsmSolver::AddToA(VertexId v, obs::PhaseStats& ph) {
  // Count v's links into A and bump the in-A degrees of its A-neighbors.
  uint32_t incidence = 0;
  // Insert v into the histogram *before* advancing δ so the histogram is
  // never transiently empty.
  const std::span<const VertexId> nbrs = graph_.Neighbors(v);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (i + kPrefetchDistance < nbrs.size()) {
      a_deg_.Prefetch(nbrs[i + kPrefetchDistance]);
    }
    const VertexId w = nbrs[i];
    ++ph.edges_scanned;
    if (a_deg_.Fresh(w)) {
      // One packed probe answers both "w ∈ A?" and its induced degree.
      ++incidence;
      const uint32_t deg_w = a_deg_.Get(w) + 1;
      a_deg_.Set(w, deg_w);
      --degree_count_[deg_w - 1];
      ++degree_count_[deg_w];
      max_count_touched_ = std::max(max_count_touched_, deg_w);
    }
  }
  a_deg_.Set(v, incidence);
  ++degree_count_[incidence];
  max_count_touched_ = std::max(max_count_touched_, incidence);
  order_.push_back(v);
  ++ph.vertices_visited;
  // Re-establish δ(G[A]): drop to the new vertex's degree if lower, then
  // advance past empty buckets (amortized O(1): δ only advances as many
  // times as degrees are incremented).
  if (order_.size() == 1 || incidence < delta_a_) delta_a_ = incidence;
  while (degree_count_[delta_a_] == 0) ++delta_a_;
}

SearchResult LocalCsmSolver::Solve(VertexId v0, const CsmOptions& options,
                                   QueryStats*, QueryGuard* guard) {
  telemetry_.Reset();
  obs::PhaseTracker tracker(&telemetry_, recorder_->timing_enabled());
  SearchResult result = SolveImpl(v0, options, guard, tracker);
  FinishQuery(result, telemetry_, tracker, *recorder_);
  // CSM has no minimum-degree threshold: pass k = 0.
  LOCS_VALIDATE_RESULT("LocalCsmSolver::Solve", graph_, result, v0, 0);
  return result;
}

SearchResult LocalCsmSolver::SolveImpl(VertexId v0, const CsmOptions& options,
                                       QueryGuard* guard,
                                       obs::PhaseTracker& tracker) {
  LOCS_CHECK_LT(v0, graph_.NumVertices());
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  tracker.Enter(obs::Phase::kAdmission);
  if (g.Stopped()) {
    return SearchResult::MakeInterrupted(g.cause(), Community{{v0}, 0});
  }

  // O(1) query reset (the histogram is reset over the range touched by the
  // previous query).
  a_deg_.NewEpoch();
  frontier_.NewEpoch();
  order_.clear();
  std::fill(degree_count_.begin(),
            degree_count_.begin() + max_count_touched_ + 1, 0);
  max_count_touched_ = 0;
  delta_a_ = 0;

  // Equation 7 upper bound: m*(G, v0) <= min(deg(v0), Theorem-3 bound).
  uint32_t upper = graph_.Degree(v0);
  if (facts_ != nullptr && facts_->connected) {
    upper = std::min(
        upper, MStarUpperBound(facts_->num_edges, facts_->num_vertices));
  }
  const bool budget_enabled =
      facts_ != nullptr && facts_->connected &&
      !(std::isinf(options.gamma) && options.gamma < 0);

  // Guard accounting: charge the work delta once per expansion step (the
  // guard amortizes the expensive checks internally).
  uint64_t charged = 0;
  auto spend = [&]() {
    const uint64_t total = telemetry_.TotalWork();
    const bool stop = g.Spend(total - charged);
    charged = total;
    return stop;
  };

  // Step 1: iterative searching and filtering (lines 1-15 of Algorithm 4).
  obs::PhaseStats& expansion = tracker.Enter(obs::Phase::kExpansion);
  AddToA(v0, expansion);
  size_t h_len = 1;        // |H|: best prefix of order_
  uint32_t delta_h = 0;    // δ(G[H])
  uint64_t s = 0;          // vertices added since the last improvement

  for (VertexId w : graph_.Neighbors(v0)) {
    ++expansion.edges_scanned;
    if (graph_.Degree(w) > delta_h) {
      ++expansion.candidates_generated;
      frontier_.Insert(w, 1);
    }
  }
  if (spend()) {
    return SearchResult::MakeInterrupted(g.cause(),
                                         HarvestPrefix(h_len, delta_h));
  }

  while (delta_h < upper && !frontier_.Empty()) {
    if (budget_enabled) {
      const uint64_t budget =
          GammaScaledBudget(facts_->num_edges, facts_->num_vertices,
                            delta_h, h_len, options.gamma);
      if (s > budget) break;
    }
    const VertexId v = frontier_.PopMax();
    // Stale entry: a vertex whose global degree can no longer improve on
    // δ(G[H]) cannot be part of any strictly better solution
    // (Proposition 3 applied at threshold δ(G[H]) + 1).
    if (graph_.Degree(v) <= delta_h) {
      ++expansion.candidates_rejected;
      continue;
    }
    AddToA(v, expansion);
    ++s;
    ++expansion.budget_spent;
    if (delta_a_ > delta_h) {
      delta_h = delta_a_;
      h_len = order_.size();
      s = 0;
    }
    // Line 14: extend the frontier with v's neighbors of sufficient
    // degree. Two single-cell probes per neighbor: the packed A cell,
    // then the frontier cell, whose IncrementOrInsert folds the old
    // Contains/discovered/Insert triple into one load (tombstones left
    // by PopMax keep rejected vertices out for good).
    const std::span<const VertexId> nbrs = graph_.Neighbors(v);
    const uint64_t* const offsets = graph_.offsets().data();
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPrefetchDistance < nbrs.size()) {
        const VertexId ahead = nbrs[i + kPrefetchDistance];
        LOCS_PREFETCH(offsets + ahead);  // Degree probe in the predicate
        a_deg_.Prefetch(ahead);
        frontier_.Prefetch(ahead);
      }
      const VertexId w = nbrs[i];
      ++expansion.edges_scanned;
      if (a_deg_.Fresh(w)) continue;
      const EpochBucketList::Probe probe = frontier_.IncrementOrInsert(
          w, 1, [&] { return graph_.Degree(w) > delta_h; });
      if (probe == EpochBucketList::Probe::kInserted) {
        ++expansion.candidates_generated;
      }
    }
    if (spend()) {
      return SearchResult::MakeInterrupted(g.cause(),
                                           HarvestPrefix(h_len, delta_h));
    }
  }

  // Sufficient condition met: the prefix H is provably optimal (Eq. 7).
  if (delta_h == upper) {
    Community community = HarvestPrefix(h_len, delta_h);
    telemetry_.answer_size = community.members.size();
    return SearchResult::MakeFound(std::move(community));
  }

  // Steps 2-3: candidate generation + maxcore.
  telemetry_.used_global_fallback = true;
  std::vector<VertexId> candidates;
  if (options.candidate_rule == CsmCandidateRule::kFromVisited) {
    candidates = order_;  // CSM1: C <- A (Theorem 6).
  } else {
    obs::PhaseStats& cand_ph = tracker.Enter(obs::Phase::kCandidates);
    if (!NaiveCandidates(v0, delta_h, cand_ph, g, charged,
                         &candidates)) {  // CSM2 (Theorem 7).
      return SearchResult::MakeInterrupted(g.cause(),
                                           HarvestPrefix(h_len, delta_h));
    }
  }
  Community best;
  if (!MaxCoreOfCandidates(v0, candidates, g, tracker, &best)) {
    // The maxcore phase never yields partial answers; the proven prefix H
    // (δ(G[H]) <= the true optimum) is the best community so far.
    return SearchResult::MakeInterrupted(g.cause(),
                                         HarvestPrefix(h_len, delta_h));
  }
  telemetry_.answer_size = best.members.size();
  return SearchResult::MakeFound(std::move(best));
}

Community LocalCsmSolver::HarvestPrefix(size_t h_len, uint32_t delta_h) const {
  // Every prefix of the insertion order is connected (each vertex enters
  // from the frontier, i.e. adjacent to A), and delta_h recorded the exact
  // δ(G[H]) at the moment the prefix was the whole of A.
  Community community;
  community.members.assign(order_.begin(),
                           order_.begin() + static_cast<ptrdiff_t>(h_len));
  community.min_degree = delta_h;
  return community;
}

bool LocalCsmSolver::NaiveCandidates(VertexId v0, uint32_t k,
                                     obs::PhaseStats& ph, QueryGuard& guard,
                                     uint64_t& charged,
                                     std::vector<VertexId>* out) {
  // Cnaive(k): BFS from v0 over vertices of global degree >= k
  // (Algorithm 3 run to exhaustion). Uses the ordered adjacency when
  // available to cut each neighbor scan at the first sub-threshold entry.
  // Returns false when the guard trips mid-BFS.
  bfs_seen_.NewEpoch();
  out->clear();
  if (graph_.Degree(v0) < k) {
    // H itself proves δ = k is reachable, so this only happens for k = 0
    // answers on isolated vertices; keep v0 so maxcore stays well-defined.
    out->push_back(v0);
    return true;
  }
  out->push_back(v0);
  bfs_seen_.Set(v0);
  const bool use_ordered = ordered_ != nullptr;
  for (size_t head = 0; head < out->size(); ++head) {
    const VertexId u = (*out)[head];
    ++ph.vertices_visited;
    auto consider = [&](VertexId w) {
      ++ph.edges_scanned;
      if (bfs_seen_.TestAndSet(w)) {
        ++ph.candidates_generated;
        out->push_back(w);
      }
    };
    if (use_ordered) {
      for (VertexId w : ordered_->Neighbors(u)) {
        if (graph_.Degree(w) < k) {
          ++ph.candidates_rejected;
          break;
        }
        consider(w);
      }
    } else {
      for (VertexId w : graph_.Neighbors(u)) {
        if (graph_.Degree(w) < k) {
          ++ph.edges_scanned;
          ++ph.candidates_rejected;
          continue;
        }
        consider(w);
      }
    }
    const uint64_t total = telemetry_.TotalWork();
    const bool stop = guard.Spend(total - charged);
    charged = total;
    if (stop) return false;
  }
  return true;
}

bool LocalCsmSolver::MaxCoreOfCandidates(
    VertexId v0, const std::vector<VertexId>& candidates, QueryGuard& guard,
    obs::PhaseTracker& tracker, Community* out) {
  LOCS_CHECK(!candidates.empty());
  LOCS_CHECK_EQ(candidates.front(), v0);
  // Phase accounting: the maxcore pass charges the guard directly with
  // degree-proportional deltas (it has always been excluded from the
  // visited/scanned totals), so the phase records those charges as
  // budget_spent rather than double-counting work.
  obs::PhaseStats& core_ph = tracker.Enter(obs::Phase::kCoreDecomposition);
  auto charge = [&](uint64_t delta) {
    core_ph.budget_spent += delta;
    return guard.Spend(delta);
  };
  // Build a compact (unsorted) CSR over the candidate set. Core
  // decomposition is insensitive to adjacency order, so no sorting is
  // needed, and all scratch is either epoch-stamped or sized O(|C|).
  const auto sub_n = static_cast<uint32_t>(candidates.size());
  local_id_.NewEpoch();
  for (uint32_t i = 0; i < sub_n; ++i) {
    local_id_.Set(candidates[i], i + 1);  // 0 = not a candidate
  }
  sub_degree_.assign(sub_n, 0);
  for (uint32_t i = 0; i < sub_n; ++i) {
    uint32_t deg = 0;
    for (VertexId w : graph_.Neighbors(candidates[i])) {
      deg += local_id_.Get(w) != 0;
    }
    sub_degree_[i] = deg;
    if (charge(graph_.Degree(candidates[i]))) return false;
  }
  sub_offsets_.assign(sub_n + 1, 0);
  for (uint32_t i = 0; i < sub_n; ++i) {
    sub_offsets_[i + 1] = sub_offsets_[i] + sub_degree_[i];
  }
  sub_neighbors_.resize(sub_offsets_[sub_n]);
  for (uint32_t i = 0; i < sub_n; ++i) {
    uint64_t cursor = sub_offsets_[i];
    for (VertexId w : graph_.Neighbors(candidates[i])) {
      const uint32_t id = local_id_.Get(w);
      if (id != 0) sub_neighbors_[cursor++] = id - 1;
    }
  }

  // Bucket peel (Batagelj–Zaversnik) over the compact subgraph.
  MinBucketQueue queue(sub_degree_);
  std::vector<uint32_t> core(sub_n);
  uint32_t current = 0;
  while (!queue.Empty()) {
    const uint32_t key = queue.MinKey();
    if (key > current) current = key;
    const uint32_t v = queue.PopMin();
    core[v] = current;
    for (uint64_t e = sub_offsets_[v]; e < sub_offsets_[v + 1]; ++e) {
      const uint32_t w = sub_neighbors_[e];
      if (!queue.Popped(w) && queue.Key(w) > current) {
        queue.DecrementKey(w);
      }
    }
    if (charge(1 + sub_offsets_[v + 1] - sub_offsets_[v])) return false;
  }

  // Component of v0 (local id 0) within its maxcore.
  tracker.Enter(obs::Phase::kConnectivity);
  const uint32_t k_star = core[0];
  std::vector<uint8_t> seen(sub_n, 0);
  std::vector<uint32_t> component;
  component.push_back(0);
  seen[0] = 1;
  for (size_t head = 0; head < component.size(); ++head) {
    const uint32_t u = component[head];
    for (uint64_t e = sub_offsets_[u]; e < sub_offsets_[u + 1]; ++e) {
      const uint32_t w = sub_neighbors_[e];
      if (seen[w] == 0 && core[w] >= k_star) {
        seen[w] = 1;
        component.push_back(w);
      }
    }
  }
  Community& community = *out;
  community = Community{};
  community.min_degree = k_star;
  community.members.reserve(component.size());
  for (uint32_t local : component) {
    community.members.push_back(candidates[local]);
  }
  return true;
}

}  // namespace locs
