#include "core/mcst.h"

#include <algorithm>

#include "core/bounds.h"
#include "core/local_cst.h"
#include "core/validate.h"
#include "graph/subgraph.h"

namespace locs {

namespace {

/// Backtracking clique search restricted to v0's closed neighborhood.
class CliqueSearch {
 public:
  CliqueSearch(const Graph& graph, uint32_t size, QueryGuard& guard)
      : graph_(graph), target_(size), guard_(guard) {}

  std::optional<std::vector<VertexId>> Run(VertexId v0) {
    clique_.push_back(v0);
    std::vector<VertexId> candidates(graph_.Neighbors(v0).begin(),
                                     graph_.Neighbors(v0).end());
    // Vertices of degree < target-1 cannot be in a clique of that size.
    std::erase_if(candidates, [this](VertexId v) {
      return graph_.Degree(v) + 1 < target_;
    });
    if (Extend(candidates)) return clique_;
    return std::nullopt;
  }

 private:
  bool Extend(const std::vector<VertexId>& candidates) {
    if (clique_.size() == target_) return true;
    if (guard_.Spend(1)) return false;
    if (clique_.size() + candidates.size() < target_) return false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const VertexId v = candidates[i];
      // Next-level candidates: later entries adjacent to v.
      std::vector<VertexId> next;
      for (size_t j = i + 1; j < candidates.size(); ++j) {
        if (graph_.HasEdge(v, candidates[j])) next.push_back(candidates[j]);
      }
      clique_.push_back(v);
      if (Extend(next)) return true;
      clique_.pop_back();
      if (guard_.Stopped()) return false;
    }
    return false;
  }

  const Graph& graph_;
  const uint32_t target_;
  QueryGuard& guard_;
  std::vector<VertexId> clique_;
};

/// Enumerates connected vertex sets containing v0 of a fixed target size,
/// each exactly once (include/exclude branching over the expansion
/// frontier), and reports the first one with δ >= k.
class ExactSearch {
 public:
  ExactSearch(const Graph& graph, uint32_t k, size_t target,
              QueryGuard& guard)
      : graph_(graph),
        k_(k),
        target_(target),
        guard_(guard),
        state_(graph.NumVertices(), State::kOpen),
        deg_in_h_(graph.NumVertices(), 0) {}

  bool Run(VertexId v0) {
    members_.push_back(v0);
    state_[v0] = State::kInH;
    std::vector<VertexId> candidates;
    for (VertexId w : graph_.Neighbors(v0)) {
      if (graph_.Degree(w) >= k_) {
        candidates.push_back(w);
        state_[w] = State::kQueued;
      }
    }
    return Dfs(candidates);
  }

  const std::vector<VertexId>& members() const { return members_; }

 private:
  enum class State : uint8_t { kOpen, kQueued, kInH, kForbidden };

  bool Dfs(const std::vector<VertexId>& candidates) {
    if (members_.size() == target_) return MinDegree() >= k_;
    if (guard_.Spend(1)) return false;
    // Bound: a member short of degree k can gain at most one unit per
    // added vertex, and only target - |H| additions remain.
    const size_t room = target_ - members_.size();
    for (VertexId u : members_) {
      if (deg_in_h_[u] < k_ && k_ - deg_in_h_[u] > room) return false;
    }
    if (candidates.empty()) return false;

    std::vector<VertexId> forbidden_here;
    bool found = false;
    for (size_t i = 0; i < candidates.size() && !found; ++i) {
      const VertexId v = candidates[i];
      // --- Include v. ---
      state_[v] = State::kInH;
      members_.push_back(v);
      uint32_t deg_v = 0;
      std::vector<VertexId> newly_queued;
      for (VertexId w : graph_.Neighbors(v)) {
        if (state_[w] == State::kInH) {
          ++deg_in_h_[w];
          ++deg_v;
        } else if (state_[w] == State::kOpen && graph_.Degree(w) >= k_) {
          state_[w] = State::kQueued;
          newly_queued.push_back(w);
        }
      }
      deg_in_h_[v] = deg_v;
      std::vector<VertexId> next(candidates.begin() +
                                     static_cast<ptrdiff_t>(i) + 1,
                                 candidates.end());
      next.insert(next.end(), newly_queued.begin(), newly_queued.end());
      found = Dfs(next);
      if (found) break;  // keep members_ intact for the caller
      // --- Undo inclusion. ---
      members_.pop_back();
      state_[v] = State::kQueued;
      for (VertexId w : graph_.Neighbors(v)) {
        if (state_[w] == State::kInH) --deg_in_h_[w];
      }
      deg_in_h_[v] = 0;
      for (VertexId w : newly_queued) state_[w] = State::kOpen;
      if (guard_.Stopped()) break;
      // --- Exclude v from the rest of this subtree. ---
      state_[v] = State::kForbidden;
      forbidden_here.push_back(v);
    }
    for (VertexId v : forbidden_here) state_[v] = State::kQueued;
    return found;
  }

  uint32_t MinDegree() const {
    uint32_t min_deg = ~uint32_t{0};
    for (VertexId u : members_) min_deg = std::min(min_deg, deg_in_h_[u]);
    return min_deg;
  }

  const Graph& graph_;
  const uint32_t k_;
  const size_t target_;
  QueryGuard& guard_;
  std::vector<State> state_;
  std::vector<uint32_t> deg_in_h_;
  std::vector<VertexId> members_;
};

/// The clique shortcut, then iterative deepening on the answer size up
/// to `max_size`, the size of a known answer: the smallest CST(k)
/// community through v0, or nullopt when `guard` stopped the search.
std::optional<Community> SmallestUpTo(const Graph& graph, VertexId v0,
                                      uint32_t k, size_t max_size,
                                      QueryGuard& guard) {
  // Lemma 1 shortcut: a (k+1)-clique through v0 is optimal.
  const std::optional<std::vector<VertexId>> clique =
      FindCliqueThrough(graph, v0, k + 1, &guard);
  if (clique.has_value()) return Community{*clique, k};
  for (size_t target = static_cast<size_t>(k) + 1;
       target <= max_size && !guard.Stopped(); ++target) {
    ExactSearch search(graph, k, target, guard);
    if (search.Run(v0)) {
      return Community{search.members(),
                       MinDegreeOfInduced(graph, search.members())};
    }
  }
  return std::nullopt;
}

SearchResult ExactMcstImpl(const Graph& graph, VertexId v0, uint32_t k,
                           obs::QueryTelemetry& telemetry,
                           obs::PhaseTracker& tracker, QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  if (k == 0) {
    telemetry.answer_size = 1;
    return SearchResult::MakeFound(Community{{v0}, 0});
  }
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  // Any solution must exist inside the k-core component of v0; the
  // greedy answer bounds the exact search's size, and its telemetry
  // starts this query's.
  SearchResult upper = GreedyMcst(graph, v0, k, &g);
  telemetry = upper.telemetry;
  // kNotExists, or interrupted with the greedy stage's own partial.
  if (!upper.Found()) return upper;

  obs::PhaseStats& expansion = tracker.Enter(obs::Phase::kExpansion);
  const uint64_t spent_before = g.spent();
  std::optional<Community> smallest =
      SmallestUpTo(graph, v0, k, upper->members.size(), g);
  expansion.budget_spent += g.spent() - spent_before;
  if (smallest.has_value()) {
    telemetry.answer_size = smallest->members.size();
    return SearchResult::MakeFound(std::move(*smallest));
  }
  if (g.Stopped()) {
    return SearchResult::MakeInterrupted(g.cause(), std::move(*upper));
  }
  return upper;  // nothing smaller: the greedy answer is optimal
}

}  // namespace

SearchResult GreedyMcstImpl(const Graph& graph, VertexId v0, uint32_t k,
                            QueryGuard* guard);

std::optional<std::vector<VertexId>> FindCliqueThrough(const Graph& graph,
                                                       VertexId v0,
                                                       uint32_t size,
                                                       QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  LOCS_CHECK_GE(size, 1u);
  if (graph.Degree(v0) + 1 < size) return std::nullopt;
  QueryGuard unlimited;
  CliqueSearch search(graph, size, guard != nullptr ? *guard : unlimited);
  std::optional<std::vector<VertexId>> clique = search.Run(v0);
#if defined(LOCS_VALIDATE)
  if (clique.has_value()) {
    // A size-s clique through v0 is a found community with exact induced
    // min degree s - 1 everywhere; CheckCommunity re-verifies precisely
    // that, plus membership and distinctness.
    LOCS_CHECK_MSG(clique->size() == size,
                   "[LOCS_VALIDATE] FindCliqueThrough: wrong clique size");
    const std::string err = validate::CheckCommunity(
        graph, Community{*clique, size - 1}, {v0});
    LOCS_CHECK_MSG(err.empty(), err.c_str());
  }
#endif
  return clique;
}

SearchResult ExactMcst(const Graph& graph, VertexId v0, uint32_t k,
                       QueryGuard* guard) {
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, /*timed=*/false);
  SearchResult result = ExactMcstImpl(graph, v0, k, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, obs::Recorder::Null());
  LOCS_VALIDATE_RESULT("ExactMcst", graph, result, v0, k);
  return result;
}

SearchResult GreedyMcst(const Graph& graph, VertexId v0, uint32_t k,
                        QueryGuard* guard) {
  SearchResult result = GreedyMcstImpl(graph, v0, k, guard);
  LOCS_VALIDATE_RESULT("GreedyMcst", graph, result, v0, k);
  return result;
}

SearchResult GreedyMcstImpl(const Graph& graph, VertexId v0, uint32_t k,
                            QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  LocalCstSolver solver(graph, nullptr, nullptr);
  SearchResult start = solver.Solve(v0, k, {}, nullptr, &g);
  if (!start.Found()) return start;  // kNotExists or interrupted as-is

  // Carry the CST stage's telemetry forward; the shrink probes below book
  // their guard charges as connectivity-phase budget (they re-check that
  // the trial set stays a connected CST(k) answer) without perturbing the
  // visited/scanned totals of the underlying local search.
  obs::QueryTelemetry telemetry = start.telemetry;
  obs::PhaseStats& shrink_ph = telemetry[obs::Phase::kConnectivity];
  ++shrink_ph.entered;

  std::vector<VertexId> members = std::move(start->members);
  bool changed = true;
  while (changed && members.size() > static_cast<size_t>(k) + 1) {
    changed = false;
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == v0) continue;
      std::vector<VertexId> trial;
      trial.reserve(members.size() - 1);
      for (size_t j = 0; j < members.size(); ++j) {
        if (j != i) trial.push_back(members[j]);
      }
      // One validity probe inspects the whole candidate set.
      shrink_ph.budget_spent += trial.size();
      if (g.Spend(trial.size())) {
        // `members` is still a valid CST(k) community — the shrink loop
        // merely stopped before reaching a minimal one.
        Community partial;
        partial.min_degree = MinDegreeOfInduced(graph, members);
        partial.members = std::move(members);
        telemetry.answer_size = partial.members.size();
        SearchResult interrupted =
            SearchResult::MakeInterrupted(g.cause(), std::move(partial));
        interrupted.telemetry = std::move(telemetry);
        return interrupted;
      }
      if (IsValidCommunity(graph, trial, v0, k)) {
        members = std::move(trial);
        changed = true;
        break;
      }
    }
  }
  Community community;
  community.min_degree = MinDegreeOfInduced(graph, members);
  community.members = std::move(members);
  telemetry.answer_size = community.members.size();
  SearchResult found = SearchResult::MakeFound(std::move(community));
  found.telemetry = std::move(telemetry);
  return found;
}

}  // namespace locs
