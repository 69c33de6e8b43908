// Ablation (extension, not a paper figure): the core-number index.
//
// For query-heavy deployments (the paper's friend-recommendation and
// advertising motivations), a one-off O(|V|+|E|) core decomposition
// answers maximal CST/CSM with one BFS over `core >= k` (Lemmas 3 and
// 4). This bench compares per-query cost of global search, local search
// (ls-li), and the index across k, plus the index build cost
// amortization point. A second table does the same for multi-vertex
// queries on seed pairs: the global oracles, the local solver's
// CstMulti/CsmMulti (LocalCstSolver over a query set), and the
// served CommunitySearcher path (n and δ from the core forest, then one
// BFS over `core >= δ`), listing every member and, as a served
// `limit=1` reply does, only the first.
//
// A third table, cst_fallback, runs perfbench's CST k-sets (cst_local:
// k in {3s..8s}; csm_mix: k in {s, 2s}; s = max(1, δ*/10)) over k-core
// vertices through the paper's LocalCstSolver (no core numbers) and
// through CommunitySearcher::Cst, whose solver skips every vertex of
// core number < k. It counts the queries that end in the G[C] peel, the
// work, and the p50/p99 latency. Run with --dataset=livejournal-sim for
// perfbench's graph.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/core_index.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_cst.h"
#include "core/multi.h"
#include "core/searcher.h"
#include "core/snapshot.h"
#include "graph/ordering.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace locs::bench {
namespace {

/// Seed pairs per k in the multi-vertex table.
constexpr size_t kPairs = 10;
/// Queries per k-set in the cst_fallback table.
constexpr size_t kFallbackQueries = 600;

/// One cst_fallback row: `solve` answers CST(k) for v0 and returns its
/// telemetry-carrying result.
template <typename Solve>
void FallbackRow(TableWriter& table, const std::string& kset,
                 const std::string& solver,
                 const std::vector<std::pair<VertexId, uint32_t>>& queries,
                 Solve&& solve) {
  uint64_t fallbacks = 0;
  uint64_t visited = 0;
  uint64_t scanned = 0;
  std::vector<double> ms;
  for (const auto& [v0, k] : queries) {
    SearchResult result;
    ms.push_back(TimeMs([&] { result = solve(v0, k); }));
    fallbacks += result.telemetry.used_global_fallback ? 1 : 0;
    visited += result.telemetry.TotalVisited();
    scanned += result.telemetry.TotalScanned();
  }
  const Summary latency = Summarize(ms);
  table.Row()
      .Cell(kset)
      .Cell(solver)
      .Num(uint64_t{queries.size()})
      .Num(fallbacks)
      .Num(visited)
      .Num(scanned)
      .Num(latency.median, 3)
      .Num(latency.p99, 3);
}

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"queries", "dataset"};
  size_t queries = 40;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error)) {
    return FlagError(error);
  }
  const std::string name = cli.GetString("dataset", "dblp-sim");

  PrintBanner(
      "Ablation — core-number index vs per-query search (extension)",
      "n/a (extension; the paper precomputes only the adjacency order)",
      "an index query is one BFS over the answer's edges: well under "
      "global search, near or under ls-li; build cost comparable to a "
      "handful of global queries");

  const auto snapshot = std::make_shared<const Snapshot>(
      Snapshot::Build(LoadStandIn(name).graph));
  const Graph& g = snapshot->graph;
  const CoreDecomposition cores = ComputeCores(g);
  const GraphFacts& facts = snapshot->facts;
  const OrderedAdjacency& ordered = snapshot->ordered;
  LocalCstSolver solver(g, &ordered, &facts);

  WallTimer build_timer;
  const CoreIndex index(g);
  const double build_ms = build_timer.Millis();
  // Depth of the core forest: the most nodes on a walk from a node to its
  // root, which bounds ComponentNode's and CommonNode's walks.
  const ConstArray<CoreForestNode>& forest = index.forest();
  std::vector<uint32_t> depth(forest.size(), 1);
  uint32_t max_depth = 0;
  for (size_t node = forest.size(); node-- > 0;) {
    // Parents follow their children, so a parent's depth is final first.
    if (forest[node].parent != CoreIndex::kNoNode) {
      depth[node] = depth[forest[node].parent] + 1;
    }
    max_depth = std::max(max_depth, depth[node]);
  }
  std::printf(
      "dataset %s: delta*=%u; index build %.1fms; core forest %zu nodes, "
      "max depth %u\n",
      name.c_str(), cores.degeneracy, build_ms, forest.size(), max_depth);

  const uint32_t s = std::max(1u, cores.degeneracy / 10);
  TableWriter table({"k", "global ms", "ls-li ms", "index ms",
                     "answer size"});
  for (uint32_t mult = 1; mult <= 8; ++mult) {
    const uint32_t k = s * mult;
    const auto sample = SampleFromKCore(cores, k, queries, 6200 + k);
    if (sample.empty()) continue;
    std::vector<double> t_global;
    std::vector<double> t_li;
    std::vector<double> t_index;
    std::vector<double> sizes;
    for (VertexId v0 : sample) {
      t_global.push_back(TimeMs([&] { GlobalCst(g, v0, k); }));
      t_li.push_back(TimeMs([&] { solver.Solve(v0, k); }));
      std::vector<VertexId> members;
      t_index.push_back(TimeMs([&] {
        members = KCoreComponentOf(g, index.core_numbers().span(), v0, k);
      }));
      sizes.push_back(static_cast<double>(members.size()));
    }
    table.Row()
        .Num(uint64_t{k})
        .Num(Summarize(t_global).mean, 3)
        .Num(Summarize(t_li).mean, 3)
        .Num(Summarize(t_index).mean, 4)
        .Num(Summarize(sizes).mean, 1);
  }
  table.Print("ablation_index_" + name);

  // Seed pairs from the k-core: both seeds pass the core-number check,
  // so every MULTI query below traverses.
  CommunitySearcher searcher(snapshot);
  TableWriter multi_table(
      {"k", "cst global ms", "cst local ms", "cst index ms",
       "cst index limit=1 ms", "answer size", "csm global ms", "csm local ms",
       "csm index ms", "csm index limit=1 ms", "csm delta"});
  for (const uint32_t mult : {1u, 2u, 4u}) {
    const uint32_t k = s * mult;
    const auto sample = SampleFromKCore(cores, k, 2 * kPairs, 7300 + k);
    if (sample.size() < 2) continue;
    std::vector<double> t_cst_global;
    std::vector<double> t_cst_local;
    std::vector<double> t_cst_index;
    std::vector<double> t_cst_limit1;
    std::vector<double> t_csm_global;
    std::vector<double> t_csm_local;
    std::vector<double> t_csm_index;
    std::vector<double> t_csm_limit1;
    std::vector<double> sizes;
    std::vector<double> deltas;
    for (size_t i = 0; i + 1 < sample.size(); i += 2) {
      const std::vector<VertexId> seeds = {sample[i], sample[i + 1]};
      t_cst_global.push_back(TimeMs([&] { GlobalCstMulti(g, seeds, k); }));
      t_cst_local.push_back(TimeMs([&] { solver.CstMulti(seeds, k); }));
      SearchResult cst;
      t_cst_index.push_back(
          TimeMs([&] { cst = searcher.CstMulti(seeds, k); }));
      t_cst_limit1.push_back(TimeMs(
          [&] { searcher.CstMulti(seeds, k, nullptr, nullptr, 1); }));
      sizes.push_back(static_cast<double>(cst.AnswerSize()));
      t_csm_global.push_back(TimeMs([&] { GlobalCsmMulti(g, seeds); }));
      t_csm_local.push_back(TimeMs([&] { solver.CsmMulti(seeds); }));
      SearchResult csm;
      t_csm_index.push_back(TimeMs([&] { csm = searcher.CsmMulti(seeds); }));
      t_csm_limit1.push_back(TimeMs(
          [&] { searcher.CsmMulti(seeds, nullptr, nullptr, 1); }));
      deltas.push_back(static_cast<double>(csm.Best().min_degree));
    }
    multi_table.Row()
        .Num(uint64_t{k})
        .Num(Summarize(t_cst_global).mean, 3)
        .Num(Summarize(t_cst_local).mean, 3)
        .Num(Summarize(t_cst_index).mean, 4)
        .Num(Summarize(t_cst_limit1).mean, 4)
        .Num(Summarize(sizes).mean, 1)
        .Num(Summarize(t_csm_global).mean, 3)
        .Num(Summarize(t_csm_local).mean, 3)
        .Num(Summarize(t_csm_index).mean, 4)
        .Num(Summarize(t_csm_limit1).mean, 4)
        .Num(Summarize(deltas).mean, 1);
  }
  multi_table.Print("ablation_index_multi_" + name);

  // The CST fallback class: k-core queries on which the paper's solver
  // admits a vertex of core number < k, exhausts the candidates and peels
  // G[C]. The served solver never admits one, so it never falls back.
  TableWriter fallback_table({"k-set", "solver", "queries", "fallbacks",
                              "visited", "scanned", "p50 ms", "p99 ms"});
  const std::vector<std::pair<std::string, std::vector<uint32_t>>> ksets = {
      {"cst_local", {3, 4, 5, 6, 7, 8}}, {"csm_mix", {1, 2}}};
  for (const auto& [kset, multiples] : ksets) {
    std::vector<std::pair<VertexId, uint32_t>> workload;
    for (const uint32_t mult : multiples) {
      const uint32_t k = s * mult;
      for (const VertexId v0 : SampleFromKCore(
               cores, k, kFallbackQueries / multiples.size(), 8100 + k)) {
        workload.emplace_back(v0, k);
      }
    }
    FallbackRow(fallback_table, kset, "paper LocalCstSolver", workload,
                [&](VertexId v0, uint32_t k) { return solver.Solve(v0, k); });
    FallbackRow(fallback_table, kset, "CommunitySearcher::Cst", workload,
                [&](VertexId v0, uint32_t k) { return searcher.Cst(v0, k); });
  }
  fallback_table.Print("ablation_index_cst_fallback_" + name);
  std::printf(
      "\nNote: the index returns the *maximal* community (the k-core "
      "component, like global search); local search may return smaller "
      "valid answers.\n");
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
