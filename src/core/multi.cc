#include "core/multi.h"

#include <algorithm>

#include "core/validate.h"

namespace locs {

namespace {

/// See GlobalCstMulti below (the public wrapper adds the LOCS_VALIDATE
/// postcondition oracle).
SearchResult GlobalCstMultiImpl(const Graph& graph,
                                const std::vector<VertexId>& query,
                                uint32_t k, obs::QueryTelemetry& telemetry,
                                obs::PhaseTracker& tracker,
                                QueryGuard* guard) {
  CheckQuerySet(graph, query);
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
  CheckQuerySet(graph, query);
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
                            QueryGuard* guard, obs::Recorder* recorder) {
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result =
      GlobalCstMultiImpl(graph, query, k, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, rec);
  LOCS_VALIDATE_RESULT("GlobalCstMulti", graph, result, query, k);
  return result;
}

SearchResult GlobalCsmMulti(const Graph& graph,
                            const std::vector<VertexId>& query,
                            QueryGuard* guard, obs::Recorder* recorder) {
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result =
      GlobalCsmMultiImpl(graph, query, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, rec);
  LOCS_VALIDATE_RESULT("GlobalCsmMulti", graph, result,
                       validate::CsmMultiQuery(result, query), 0);
  return result;
}

}  // namespace locs
