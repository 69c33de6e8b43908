#include "core/global.h"

#include <algorithm>
#include <queue>

#include "core/validate.h"
#include "graph/subgraph.h"
#include "util/bucket_queue.h"

namespace locs {

namespace {

/// BFS component of v0 over vertices with mark[v] == 0, stamping reached
/// vertices with 2; the induced minimum degree is recounted exactly
/// against the reached set, so the result is valid even when `degree` is
/// mid-peel stale.
Community HarvestComponent(const Graph& graph, VertexId v0,
                           std::vector<uint8_t>& mark) {
  Community community;
  community.members.push_back(v0);
  mark[v0] = 2;
  for (size_t head = 0; head < community.members.size(); ++head) {
    for (VertexId w : graph.Neighbors(community.members[head])) {
      if (mark[w] == 0) {
        mark[w] = 2;
        community.members.push_back(w);
      }
    }
  }
  uint32_t min_degree = ~uint32_t{0};
  for (VertexId u : community.members) {
    uint32_t degree = 0;
    for (VertexId w : graph.Neighbors(u)) degree += mark[w] == 2 ? 1u : 0u;
    min_degree = std::min(min_degree, degree);
  }
  community.min_degree = community.members.size() == 0 ? 0 : min_degree;
  return community;
}

SearchResult GlobalCstImpl(const Graph& graph, VertexId v0, uint32_t k,
                           obs::QueryTelemetry& telemetry,
                           obs::PhaseTracker& tracker, QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  // The global method always touches the whole graph: charge the peel
  // phase its full |V| + 2|E| cost up front (the historical accounting).
  obs::PhaseStats& peel_ph = tracker.Enter(obs::Phase::kCoreDecomposition);
  peel_ph.vertices_visited = graph.NumVertices();
  peel_ph.edges_scanned = 2 * graph.NumEdges();
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  if (g.Stopped()) {
    return SearchResult::MakeInterrupted(g.cause(), Community{{v0}, 0});
  }

  // Iteratively delete vertices of degree < k (Lemma 3), then return the
  // connected component of v0 among the survivors.
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
  if (g.Spend(n)) {
    if (removed[v0] != 0) return SearchResult::MakeNotExists();
    return SearchResult::MakeInterrupted(g.cause(),
                                         HarvestComponent(graph, v0, removed));
  }
  for (size_t head = 0; head < worklist.size(); ++head) {
    const VertexId v = worklist[head];
    for (VertexId w : graph.Neighbors(v)) {
      if (removed[w] == 0 && --degree[w] < k) {
        removed[w] = 1;
        worklist.push_back(w);
      }
    }
    if (g.Spend(1 + graph.Degree(v))) {
      // Removals are sound mid-peel, so a removed v0 stays an exact
      // negative; otherwise degrade to v0's component of the survivors.
      if (removed[v0] != 0) return SearchResult::MakeNotExists();
      return SearchResult::MakeInterrupted(
          g.cause(), HarvestComponent(graph, v0, removed));
    }
  }
  if (removed[v0] != 0) return SearchResult::MakeNotExists();

  // BFS within the survivors.
  tracker.Enter(obs::Phase::kConnectivity);
  Community community;
  community.members.push_back(v0);
  removed[v0] = 2;  // 2 = visited
  uint32_t min_degree = degree[v0];
  for (size_t head = 0; head < community.members.size(); ++head) {
    const VertexId u = community.members[head];
    min_degree = std::min(min_degree, degree[u]);
    for (VertexId w : graph.Neighbors(u)) {
      if (removed[w] == 0) {
        removed[w] = 2;
        community.members.push_back(w);
      }
    }
    if (g.Spend(1 + graph.Degree(u))) {
      // Partial BFS set: connected, contains v0; recount induced degrees
      // against the reached marks.
      uint32_t partial_min = ~uint32_t{0};
      for (VertexId x : community.members) {
        uint32_t deg = 0;
        for (VertexId w : graph.Neighbors(x)) {
          deg += removed[w] == 2 ? 1u : 0u;
        }
        partial_min = std::min(partial_min, deg);
      }
      community.min_degree = partial_min;
      return SearchResult::MakeInterrupted(g.cause(), std::move(community));
    }
  }
  community.min_degree = min_degree;
  telemetry.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

SearchResult GlobalCsmImpl(const Graph& graph, VertexId v0,
                           obs::QueryTelemetry& telemetry,
                           obs::PhaseTracker& tracker, QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  obs::PhaseStats& core_ph = tracker.Enter(obs::Phase::kCoreDecomposition);
  if (guard != nullptr) {
    // Poll once before committing to the indivisible decomposition, and
    // charge its full cost so nested budgets stay honest. An interrupt
    // here still books the full |V| + 2|E| (the historical accounting —
    // the whole pass was charged, so the whole pass is reported).
    if (guard->Spend(0)) {
      core_ph.vertices_visited = graph.NumVertices();
      core_ph.edges_scanned = 2 * graph.NumEdges();
      return SearchResult::MakeInterrupted(guard->cause(),
                                           Community{{v0}, 0});
    }
    guard->Spend(graph.NumVertices() + 2 * graph.NumEdges());
  }

  // The peel itself counts exactly |V| pops and 2|E| neighbor scans, so
  // the completed-path totals match the historical up-front numbers.
  const CoreDecomposition cores = ComputeCores(graph, &core_ph);
  tracker.Enter(obs::Phase::kConnectivity);
  Community community;
  community.members = MaxCoreComponentOf(graph, cores.core, v0);
  community.min_degree = cores.core[v0];
  telemetry.answer_size = community.members.size();
  return SearchResult::MakeFound(std::move(community));
}

/// Shared solve epilogue for the global free functions: close the spans,
/// attach telemetry to the result, project the legacy stats, record.
void FinishQuery(SearchResult& result, obs::QueryTelemetry& telemetry,
                 obs::PhaseTracker& tracker, QueryStats* stats,
                 obs::Recorder& recorder) {
  tracker.Finish();
  result.telemetry = telemetry;
  if (stats != nullptr) *stats = ToQueryStats(telemetry);
  recorder.Record(telemetry);
}

}  // namespace

SearchResult GlobalCst(const Graph& graph, VertexId v0, uint32_t k,
                       QueryStats* stats, QueryGuard* guard,
                       obs::Recorder* recorder) {
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result = GlobalCstImpl(graph, v0, k, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, stats, rec);
  LOCS_VALIDATE_RESULT("GlobalCst", graph, result, v0, k);
  return result;
}

SearchResult GlobalCsm(const Graph& graph, VertexId v0, QueryStats* stats,
                       QueryGuard* guard, obs::Recorder* recorder) {
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result = GlobalCsmImpl(graph, v0, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, stats, rec);
  LOCS_VALIDATE_RESULT("GlobalCsm", graph, result, v0, 0);
  return result;
}

Community GreedyGlobalCsm(const Graph& graph, VertexId v0) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  const VertexId n = graph.NumVertices();
  // Literal greedy deletion with a lazy binary heap — deliberately written
  // independently from the bucket-based core decomposition so the two can
  // validate each other.
  std::vector<uint32_t> degree(n);
  std::vector<uint8_t> alive(n, 1);
  using Entry = std::pair<uint32_t, VertexId>;  // (degree, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = graph.Degree(v);
    heap.emplace(degree[v], v);
  }
  // removal_step[v]: index at which v was deleted; kept alive => ~0.
  std::vector<uint64_t> removal_step(n, ~uint64_t{0});
  uint64_t step = 0;
  uint32_t best_delta = 0;
  uint64_t best_step = 0;  // first step at which δ(G_i) == best_delta
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (alive[v] == 0 || d != degree[v]) continue;  // stale entry
    // δ of the current remaining graph is d (v is a minimum-degree vertex).
    if (d > best_delta || step == 0) {
      best_delta = d;
      best_step = step;
    }
    if (v == v0) break;  // v0 is next to be deleted: stop (§3.2).
    alive[v] = 0;
    removal_step[v] = step++;
    for (VertexId w : graph.Neighbors(v)) {
      if (alive[w] != 0) {
        heap.emplace(--degree[w], w);
      }
    }
  }
  // G_{best_step} contains every vertex not yet deleted before best_step.
  std::vector<uint8_t> in_gi(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (removal_step[v] >= best_step) in_gi[v] = 1;
  }
  // Component of v0 within G_{best_step}.
  Community community;
  community.members.push_back(v0);
  in_gi[v0] = 2;
  for (size_t head = 0; head < community.members.size(); ++head) {
    for (VertexId w : graph.Neighbors(community.members[head])) {
      if (in_gi[w] == 1) {
        in_gi[w] = 2;
        community.members.push_back(w);
      }
    }
  }
  community.min_degree = MinDegreeOfInduced(graph, community.members);
  LOCS_VALIDATE_RESULT("GreedyGlobalCsm", graph,
                       SearchResult::MakeFound(community), v0, 0);
  return community;
}

}  // namespace locs
