// Microbenchmarks (google-benchmark) for the batch execution engine:
// the BatchRunner paths the figure drivers and the CLI use, then the
// QueryGuard's cost and latency bound. Every batch starts and joins its
// own worker threads, so BM_SmallCstBatchesPersistent (8 queries a
// batch) is where that per-batch cost shows most.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "core/local_cst.h"
#include "core/result.h"
#include "core/snapshot.h"
#include "exec/batch_runner.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "graph/subgraph.h"

namespace locs {
namespace {

constexpr unsigned kThreads = 4;

const Graph& TestGraph() {
  static const Graph graph = [] {
    gen::LfrParams params;
    params.n = 20000;
    params.min_degree = 5;
    params.max_degree = 80;
    params.min_community = 20;
    params.max_community = 150;
    params.mu = 0.1;
    params.seed = 808;
    return ExtractLargestComponent(gen::Lfr(params).graph).graph;
  }();
  return graph;
}

const std::shared_ptr<const Snapshot>& TestSnapshot() {
  static const auto snapshot =
      std::make_shared<const Snapshot>(Snapshot::Build(TestGraph()));
  return snapshot;
}

// Many small CST batches on one persistent BatchRunner: searcher
// scratch (epoch arrays, bucket lists) is reused across batches, and
// each batch pays its own thread starts.
void BM_SmallCstBatchesPersistent(benchmark::State& state) {
  const auto& snapshot = TestSnapshot();
  const Graph& g = snapshot->graph;
  BatchRunner runner(snapshot);
  BatchLimits limits;
  limits.num_threads = kThreads;
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < 8; ++v) queries.push_back(v * 97 % g.NumVertices());
  runner.RunCst(queries, 6, limits);  // warm up the per-worker searchers
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.RunCst(queries, 6, limits));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_SmallCstBatchesPersistent)->Unit(benchmark::kMicrosecond);

// The same small batches through a fresh BatchRunner (fresh searchers)
// per call — isolates the cost of searcher reuse.
void BM_SmallCstBatchesFreshRunner(benchmark::State& state) {
  const auto& snapshot = TestSnapshot();
  const Graph& g = snapshot->graph;
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < 8; ++v) queries.push_back(v * 97 % g.NumVertices());
  BatchLimits limits;
  limits.num_threads = kThreads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchRunner(snapshot).RunCst(queries, 6, limits));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_SmallCstBatchesFreshRunner)->Unit(benchmark::kMicrosecond);

// One large batch (the Fig. 8/16 shape): the thread starts are
// amortized over thousands of queries here.
void BM_LargeCstBatch(benchmark::State& state) {
  const auto& snapshot = TestSnapshot();
  const Graph& g = snapshot->graph;
  BatchRunner runner(snapshot);
  BatchLimits limits;
  limits.num_threads = kThreads;
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < g.NumVertices(); v += 2) queries.push_back(v);
  runner.RunCst({0}, 6, limits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.RunCst(queries, 6, limits));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_LargeCstBatch)->Unit(benchmark::kMillisecond);

// --- QueryGuard cost and latency-bound benches ---------------------------

// Fig. 8-shaped CST workload with an unlimited guard (the default every
// query now runs under): Spend() is an add + compare + never-taken
// branch. Baseline for the polling-overhead comparison below.
void BM_CstGuardUnlimited(benchmark::State& state) {
  const Graph& g = TestGraph();
  static const GraphFacts facts = GraphFacts::Compute(g);
  static const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < 64; ++v) queries.push_back(v * 131 % g.NumVertices());
  for (auto _ : state) {
    for (VertexId v0 : queries) {
      benchmark::DoNotOptimize(solver.Solve(v0, 6));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_CstGuardUnlimited)->Unit(benchmark::kMillisecond);

// The same workload under a limited guard whose budget is never hit: every
// ~1024 work units the slow poll (clock read + compares) runs. The delta
// against BM_CstGuardUnlimited is the full price of enforcement — the
// acceptance target is < 2%.
void BM_CstGuardPolling(benchmark::State& state) {
  const Graph& g = TestGraph();
  static const GraphFacts facts = GraphFacts::Compute(g);
  static const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < 64; ++v) queries.push_back(v * 131 % g.NumVertices());
  QueryLimits limits;
  limits.deadline_ms = 1e9;  // unreachable, but forces real polling
  limits.work_budget = uint64_t{1} << 60;
  for (auto _ : state) {
    for (VertexId v0 : queries) {
      QueryGuard guard(limits);
      benchmark::DoNotOptimize(solver.Solve(v0, 6, {}, nullptr, &guard));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_CstGuardPolling)->Unit(benchmark::kMillisecond);

// A graph where single CST queries genuinely run for tens of
// milliseconds: a large sparse G(n, p) with k chosen right at the core
// emergence threshold, so local expansion grows huge and then hands off
// to a full-graph peel.
const Graph& AdversarialGraph() {
  static const Graph graph =
      gen::ErdosRenyiGnp(400000, 10.0 / 400000, 7);
  return graph;
}

// Latency-bound check: adversarial CST queries under a 10 ms per-query
// deadline. Reports the slowest single query observed; the acceptance
// bound is ~2x the deadline (one poll interval of work plus the
// best-so-far harvest past expiry).
void BM_CstDeadline10msWorstQuery(benchmark::State& state) {
  const Graph& g = AdversarialGraph();
  static const GraphFacts facts = GraphFacts::Compute(g);
  static const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < 32; ++v) queries.push_back(v * 211 % g.NumVertices());
  constexpr double kDeadlineMs = 10.0;
  double max_query_ms = 0.0;
  uint64_t interrupted = 0, total = 0;
  for (auto _ : state) {
    for (VertexId v0 : queries) {
      QueryLimits limits;
      limits.deadline_ms = kDeadlineMs;
      QueryGuard guard(limits);
      const auto start = std::chrono::steady_clock::now();
      const SearchResult result = solver.Solve(v0, 7, {}, nullptr, &guard);
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
      max_query_ms = std::max(max_query_ms, ms);
      ++total;
      if (result.Interrupted()) ++interrupted;
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["max_query_ms"] = max_query_ms;
  state.counters["deadline_ms"] = kDeadlineMs;
  state.counters["interrupted_pct"] =
      total == 0 ? 0.0 : 100.0 * static_cast<double>(interrupted) /
                             static_cast<double>(total);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_CstDeadline10msWorstQuery)->Unit(benchmark::kMillisecond);

// End-to-end batch variant: per-query 10 ms deadlines through BatchRunner,
// the exact configuration `locs_cli batch --query-deadline-ms=10` runs.
void BM_DeadlinedCstBatch(benchmark::State& state) {
  static const auto snapshot = std::make_shared<const Snapshot>(
      Snapshot::Build(AdversarialGraph()));
  const Graph& g = snapshot->graph;
  BatchRunner runner(snapshot);
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < 32; ++v) queries.push_back(v * 211 % g.NumVertices());
  BatchLimits limits;
  limits.num_threads = kThreads;
  limits.query_deadline_ms = 10.0;
  runner.RunCst({0}, 6);
  uint64_t interrupted = 0, batches = 0;
  for (auto _ : state) {
    const auto batch = runner.RunCst(queries, 7, limits);
    interrupted += batch.stats.CountOf(Termination::kDeadline);
    ++batches;
    benchmark::DoNotOptimize(batch);
  }
  state.counters["interrupted_per_batch"] =
      batches == 0 ? 0.0
                   : static_cast<double>(interrupted) /
                         static_cast<double>(batches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_DeadlinedCstBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace locs

BENCHMARK_MAIN();
