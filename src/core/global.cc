#include "core/global.h"

#include <algorithm>
#include <queue>
#include <span>

#include "core/multi.h"
#include "core/validate.h"
#include "graph/subgraph.h"

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

/// The one seed-set engine behind GlobalCst and the multi-seed globals
/// (Lemma 3 lifted to seed sets): iteratively delete vertices of degree
/// < k, kNotExists once a seed is peeled, then BFS from seeds[0] over the
/// survivors, kNotExists unless every seed is reached. The guard is
/// charged as the work happens: |V| for the degree pass, then 1 + deg(v)
/// per peeled or listed vertex. Phase counters accumulate (`+=`), so the
/// probes of GlobalCsmMulti's binary search sum into one telemetry.
SearchResult GlobalCstImpl(const Graph& graph,
                           std::span<const VertexId> seeds, uint32_t k,
                           obs::QueryTelemetry& telemetry,
                           obs::PhaseTracker& tracker, QueryGuard* guard) {
  // The global method always touches the whole graph: charge the peel
  // phase its full |V| + 2|E| cost up front (the historical accounting).
  obs::PhaseStats& peel_ph = tracker.Enter(obs::Phase::kCoreDecomposition);
  peel_ph.vertices_visited += graph.NumVertices();
  peel_ph.edges_scanned += 2 * graph.NumEdges();
  const VertexId v0 = seeds[0];
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  if (g.Stopped()) {
    return SearchResult::MakeInterrupted(g.cause(), Community{{v0}, 0});
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
  // Removals are sound mid-peel, so a peeled seed is an exact negative
  // even when the guard stops the peel; otherwise an interrupted peel
  // degrades to v0's component of the survivors.
  const auto seed_peeled = [&] {
    return std::any_of(seeds.begin(), seeds.end(),
                       [&](VertexId q) { return removed[q] != 0; });
  };
  const auto interrupted_peel = [&] {
    if (seed_peeled()) return SearchResult::MakeNotExists();
    return SearchResult::MakeInterrupted(g.cause(),
                                         HarvestComponent(graph, v0, removed));
  };
  if (g.Spend(n)) return interrupted_peel();
  for (size_t head = 0; head < worklist.size(); ++head) {
    const VertexId v = worklist[head];
    for (VertexId w : graph.Neighbors(v)) {
      if (removed[w] == 0 && --degree[w] < k) {
        removed[w] = 1;
        worklist.push_back(w);
      }
    }
    if (g.Spend(1 + graph.Degree(v))) return interrupted_peel();
  }
  if (seed_peeled()) return SearchResult::MakeNotExists();

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
  for (VertexId q : seeds) {
    // A seed in another component of the survivors.
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
      GlobalCstImpl(graph, query, 0, telemetry, tracker, guard);
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
        GlobalCstImpl(graph, query, mid, telemetry, tracker, guard);
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

}  // namespace

SearchResult GlobalCst(const Graph& graph, VertexId v0, uint32_t k,
                       QueryGuard* guard, obs::Recorder* recorder) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result =
      GlobalCstImpl(graph, {&v0, 1}, k, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, rec);
  LOCS_VALIDATE_RESULT("GlobalCst", graph, result, v0, k);
  return result;
}

SearchResult GlobalCstMulti(const Graph& graph,
                            const std::vector<VertexId>& query, uint32_t k,
                            QueryGuard* guard, obs::Recorder* recorder) {
  CheckQuerySet(graph, query);
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result =
      GlobalCstImpl(graph, query, k, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, rec);
  LOCS_VALIDATE_RESULT("GlobalCstMulti", graph, result, query, k);
  return result;
}

SearchResult GlobalCsm(const Graph& graph, VertexId v0, QueryGuard* guard,
                       obs::Recorder* recorder) {
  obs::Recorder& rec =
      recorder != nullptr ? *recorder : obs::Recorder::Null();
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, rec.timing_enabled());
  SearchResult result = GlobalCsmImpl(graph, v0, telemetry, tracker, guard);
  FinishQuery(result, telemetry, tracker, rec);
  LOCS_VALIDATE_RESULT("GlobalCsm", graph, result, v0, 0);
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
