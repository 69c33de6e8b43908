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
// served CommunitySearcher path (CstMulti: one BFS over `core >= k`;
// CsmMulti: a max-bottleneck sweep, then that BFS).

#include <cstdio>
#include <memory>
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

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const auto queries = static_cast<size_t>(cli.GetInt("queries", 40));
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
  std::printf("dataset %s: delta*=%u; index build %.1fms\n", name.c_str(),
              cores.degeneracy, build_ms);

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
  TableWriter multi_table({"k", "cst global ms", "cst local ms",
                           "cst index ms", "answer size", "csm global ms",
                           "csm local ms", "csm index ms", "csm delta"});
  for (const uint32_t mult : {1u, 2u, 4u}) {
    const uint32_t k = s * mult;
    const auto sample = SampleFromKCore(cores, k, 2 * kPairs, 7300 + k);
    if (sample.size() < 2) continue;
    std::vector<double> t_cst_global;
    std::vector<double> t_cst_local;
    std::vector<double> t_cst_index;
    std::vector<double> t_csm_global;
    std::vector<double> t_csm_local;
    std::vector<double> t_csm_index;
    std::vector<double> sizes;
    std::vector<double> deltas;
    for (size_t i = 0; i + 1 < sample.size(); i += 2) {
      const std::vector<VertexId> seeds = {sample[i], sample[i + 1]};
      t_cst_global.push_back(TimeMs([&] { GlobalCstMulti(g, seeds, k); }));
      t_cst_local.push_back(TimeMs([&] { solver.CstMulti(seeds, k); }));
      SearchResult cst;
      t_cst_index.push_back(
          TimeMs([&] { cst = searcher.CstMulti(seeds, k); }));
      sizes.push_back(static_cast<double>(cst.Best().members.size()));
      t_csm_global.push_back(TimeMs([&] { GlobalCsmMulti(g, seeds); }));
      t_csm_local.push_back(TimeMs([&] { solver.CsmMulti(seeds); }));
      SearchResult csm;
      t_csm_index.push_back(TimeMs([&] { csm = searcher.CsmMulti(seeds); }));
      deltas.push_back(static_cast<double>(csm.Best().min_degree));
    }
    multi_table.Row()
        .Num(uint64_t{k})
        .Num(Summarize(t_cst_global).mean, 3)
        .Num(Summarize(t_cst_local).mean, 3)
        .Num(Summarize(t_cst_index).mean, 4)
        .Num(Summarize(sizes).mean, 1)
        .Num(Summarize(t_csm_global).mean, 3)
        .Num(Summarize(t_csm_local).mean, 3)
        .Num(Summarize(t_csm_index).mean, 4)
        .Num(Summarize(deltas).mean, 1);
  }
  multi_table.Print("ablation_index_multi_" + name);
  std::printf(
      "\nNote: the index returns the *maximal* community (the k-core "
      "component, like global search); local search may return smaller "
      "valid answers.\n");
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
