// Microbenchmarks (google-benchmark) for the primitive operations behind
// the paper's algorithms — ablations for the design choices called out in
// DESIGN.md: bucket peeling, the Figure-5 incidence structure, epoch
// resets, induced subgraphs, and end-to-end local vs global queries.

#include <benchmark/benchmark.h>

#include "core/global.h"
#include "core/kcore.h"
#include "core/lazy_bucket_queue.h"
#include "core/local_cst.h"
#include "gen/lfr.h"
#include "graph/ordering.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace locs {
namespace {

const Graph& TestGraph() {
  static const Graph graph = [] {
    gen::LfrParams params;
    params.n = 50000;
    params.min_degree = 5;
    params.max_degree = 100;
    params.min_community = 20;
    params.max_community = 200;
    params.mu = 0.1;
    params.seed = 515;
    return ExtractLargestComponent(gen::Lfr(params).graph).graph;
  }();
  return graph;
}

void BM_CoreDecomposition(benchmark::State& state) {
  const Graph& g = TestGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCores(g));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumVertices()));
}
BENCHMARK(BM_CoreDecomposition)->Unit(benchmark::kMillisecond);

void BM_BfsFullGraph(benchmark::State& state) {
  const Graph& g = TestGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BfsOrder(g, 0));
  }
}
BENCHMARK(BM_BfsFullGraph)->Unit(benchmark::kMillisecond);

void BM_OrderedAdjacencyBuild(benchmark::State& state) {
  const Graph& g = TestGraph();
  for (auto _ : state) {
    OrderedAdjacency ordered(g);
    benchmark::DoNotOptimize(ordered.Neighbors(0).data());
  }
}
BENCHMARK(BM_OrderedAdjacencyBuild)->Unit(benchmark::kMillisecond);

void BM_LazyBucketQueueOps(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  // Each pass appends n inserts and at most 2n increments.
  LazyBucketQueue queue(n, 64, size_t{3} * n);
  Rng rng(7);
  const auto admit = [] { return true; };
  for (auto _ : state) {
    // Max side, as li and local CSM use it.
    queue.NewEpoch();
    for (uint32_t v = 0; v < n; ++v) queue.IncrementOrInsert(v, admit);
    for (uint32_t i = 0; i < n; ++i) {
      queue.IncrementOrInsert(static_cast<uint32_t>(rng.Below(n)), admit);
    }
    while (!queue.Empty()) benchmark::DoNotOptimize(queue.PopMax());
    // Min side, as lg uses it.
    queue.NewEpoch();
    for (uint32_t v = 0; v < n; ++v) queue.Insert(v, 0);
    for (uint32_t i = 0; i < n; ++i) {
      queue.IncrementIfPresent(static_cast<uint32_t>(rng.Below(n)));
    }
    while (!queue.Empty()) {
      const uint32_t v = queue.MinElement();
      benchmark::DoNotOptimize(v);
      queue.Tombstone(v);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * 6);
}
BENCHMARK(BM_LazyBucketQueueOps)->Arg(1024)->Arg(65536);

void BM_InducedSubgraph(benchmark::State& state) {
  const Graph& g = TestGraph();
  Rng rng(12);
  std::vector<VertexId> members;
  std::vector<uint8_t> used(g.NumVertices(), 0);
  while (members.size() < 2000) {
    const auto v = static_cast<VertexId>(rng.Below(g.NumVertices()));
    if (!used[v]) {
      used[v] = 1;
      members.push_back(v);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(InducedSubgraph(g, members));
  }
}
BENCHMARK(BM_InducedSubgraph)->Unit(benchmark::kMicrosecond);

void BM_LocalCstQuery(benchmark::State& state) {
  const Graph& g = TestGraph();
  static const GraphFacts facts = GraphFacts::Compute(g);
  static const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);
  const auto strategy = static_cast<Strategy>(state.range(0));
  CstOptions options;
  options.strategy = strategy;
  Rng rng(5);
  std::vector<VertexId> queries;
  for (int i = 0; i < 64; ++i) {
    VertexId v = 0;
    do {
      v = static_cast<VertexId>(rng.Below(g.NumVertices()));
    } while (g.Degree(v) < 8);
    queries.push_back(v);
  }
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.Solve(queries[qi++ % queries.size()], 8, options));
  }
}
BENCHMARK(BM_LocalCstQuery)
    ->Arg(static_cast<int>(Strategy::kNaive))
    ->Arg(static_cast<int>(Strategy::kLG))
    ->Arg(static_cast<int>(Strategy::kLI))
    ->Unit(benchmark::kMicrosecond);

void BM_GlobalCstQuery(benchmark::State& state) {
  const Graph& g = TestGraph();
  Rng rng(6);
  for (auto _ : state) {
    const auto v = static_cast<VertexId>(rng.Below(g.NumVertices()));
    benchmark::DoNotOptimize(GlobalCst(g, v, 8));
  }
}
BENCHMARK(BM_GlobalCstQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace locs

BENCHMARK_MAIN();
