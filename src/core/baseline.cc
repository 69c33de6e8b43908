#include "core/baseline.h"

#include <algorithm>

#include "core/validate.h"

namespace locs {

namespace {

/// DFS state for Algorithm 1. Degrees within H are maintained
/// incrementally; the monotonicity test "δ(H ∪ {v}) >= δ(H)" reduces to
/// "v has at least δ(H) links into H", because adding a vertex never
/// decreases the degree of existing members.
class BaselineSearch {
 public:
  BaselineSearch(const Graph& graph, uint32_t k, QueryGuard& guard,
                 obs::PhaseStats& expansion)
      : graph_(graph),
        k_(k),
        guard_(guard),
        expansion_(expansion),
        in_h_(graph.NumVertices(), 0),
        deg_in_h_(graph.NumVertices(), 0) {}

  /// True when a solution containing `v0` was found (see Answer()); false
  /// when none exists or the guard stopped the search.
  bool Run(VertexId v0) {
    members_.push_back(v0);
    in_h_[v0] = 1;
    return Search();
  }

  Community Answer() const { return Community{members_, MinDegree()}; }

 private:
  uint32_t MinDegree() const {
    uint32_t min_deg = ~uint32_t{0};
    for (VertexId v : members_) min_deg = std::min(min_deg, deg_in_h_[v]);
    return min_deg;
  }

  /// Returns true when `members_` currently holds a solution.
  bool Search() {
    if (guard_.Spend(1)) return false;
    ++expansion_.budget_spent;
    const uint32_t delta = MinDegree();
    if (delta >= k_) return true;
    // Enumerate the neighbors of H (each once), keeping those that do not
    // decrease δ and are not prunable by Proposition 3.
    std::vector<VertexId> frontier;
    for (VertexId u : members_) {
      for (VertexId w : graph_.Neighbors(u)) {
        if (in_h_[w] != 0 || graph_.Degree(w) < k_) continue;
        in_h_[w] = 2;  // 2 = staged in frontier (dedup)
        frontier.push_back(w);
      }
    }
    for (VertexId w : frontier) in_h_[w] = 0;
    for (VertexId w : frontier) {
      uint32_t incidence = 0;
      for (VertexId x : graph_.Neighbors(w)) incidence += in_h_[x] == 1;
      if (incidence < delta) continue;  // would decrease δ
      Push(w, incidence);
      if (Search()) return true;
      Pop(w);
      if (guard_.Stopped()) return false;
    }
    return false;
  }

  void Push(VertexId w, uint32_t incidence) {
    in_h_[w] = 1;
    deg_in_h_[w] = incidence;
    members_.push_back(w);
    for (VertexId x : graph_.Neighbors(w)) {
      if (in_h_[x] == 1 && x != w) ++deg_in_h_[x];
    }
  }

  void Pop(VertexId w) {
    members_.pop_back();
    in_h_[w] = 0;
    deg_in_h_[w] = 0;
    for (VertexId x : graph_.Neighbors(w)) {
      if (in_h_[x] == 1) --deg_in_h_[x];
    }
  }

  const Graph& graph_;
  const uint32_t k_;
  QueryGuard& guard_;
  obs::PhaseStats& expansion_;
  std::vector<uint8_t> in_h_;
  std::vector<uint32_t> deg_in_h_;
  std::vector<VertexId> members_;
};

SearchResult BaselineCstImpl(const Graph& graph, VertexId v0, uint32_t k,
                             obs::QueryTelemetry& telemetry,
                             obs::PhaseTracker& tracker, QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  obs::PhaseStats& expansion = tracker.Enter(obs::Phase::kExpansion);
  // Proposition 3: no solution can exist.
  if (k > 0 && graph.Degree(v0) < k) return SearchResult::MakeNotExists();
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  BaselineSearch search(graph, k, g, expansion);
  if (search.Run(v0)) {
    Community answer = search.Answer();
    telemetry.answer_size = answer.members.size();
    return SearchResult::MakeFound(std::move(answer));
  }
  if (g.Stopped()) {
    return SearchResult::MakeInterrupted(g.cause(), Community{{v0}, 0});
  }
  return SearchResult::MakeNotExists();
}

}  // namespace

SearchResult BaselineCst(const Graph& graph, VertexId v0, uint32_t k,
                         QueryGuard* guard) {
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, /*timed=*/false);
  SearchResult result =
      BaselineCstImpl(graph, v0, k, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, obs::Recorder::Null());
  LOCS_VALIDATE_RESULT("BaselineCst", graph, result, v0, k);
  return result;
}

}  // namespace locs
