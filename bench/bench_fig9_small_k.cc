// Figure 9: CST performance for small k (1..8) on all four datasets.
//
// Paper's shape: for extremely small k, local search wins by up to two
// orders of magnitude (k=1: any incident edge answers; k=2: any cycle);
// the gap narrows somewhat as k approaches 8 but local remains better.

#include <cstdio>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_cst.h"
#include "graph/ordering.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace locs::bench {
namespace {

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"queries"};
  size_t queries = 40;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error)) {
    return FlagError(error);
  }

  PrintBanner(
      "Figure 9 — CST performance for small k (1..8)",
      "local search two orders of magnitude faster than global at very "
      "small k; advantage persists across 1..8",
      "ls-li/naive/lg orders of magnitude below global at k=1..2; gap "
      "narrows but holds through k=8");

  for (const std::string& name : StandInNames()) {
    Dataset dataset = LoadStandIn(name);
    const Graph& g = dataset.graph;
    const CoreDecomposition cores = ComputeCores(g);
    const GraphFacts facts = GraphFacts::Compute(g);
    const OrderedAdjacency ordered(g);
    LocalCstSolver solver(g, &ordered, &facts);

    std::printf("dataset %s\n", name.c_str());
    TableWriter table(
        {"k", "global ms", "ls-naive ms", "ls-li ms", "ls-lg ms"});
    for (uint32_t k = 1; k <= 8; ++k) {
      const auto sample = SampleFromKCore(cores, k, queries, 9100 + k);
      if (sample.empty()) continue;
      std::vector<double> t_global;
      std::vector<double> t_naive;
      std::vector<double> t_li;
      std::vector<double> t_lg;
      for (VertexId v0 : sample) {
        t_global.push_back(TimeMs([&] { GlobalCst(g, v0, k); }));
        CstOptions options;
        options.strategy = Strategy::kNaive;
        t_naive.push_back(TimeMs([&] { solver.Solve(v0, k, options); }));
        options.strategy = Strategy::kLI;
        t_li.push_back(TimeMs([&] { solver.Solve(v0, k, options); }));
        options.strategy = Strategy::kLG;
        t_lg.push_back(TimeMs([&] { solver.Solve(v0, k, options); }));
      }
      table.Row()
          .Num(uint64_t{k})
          .Cell(MeanStd(Summarize(t_global)))
          .Cell(MeanStd(Summarize(t_naive)))
          .Cell(MeanStd(Summarize(t_li)))
          .Cell(MeanStd(Summarize(t_lg)));
    }
    table.Print("fig9_" + name);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
