// Figure 8: efficiency of the CST solutions — mean query time (and std)
// of global, ls-naive, ls-li, and ls-lg across k = s, 2s, ..., 8s where
// s = δ*(G)/10, on all four datasets, with query vertices drawn from the
// k-core (a solution always exists).
//
// Paper's shape: local search beats global search almost everywhere; the
// gap widens as k grows (up to two orders of magnitude); ls-li is the best
// local strategy and its runtime decreases with k; global is flat in k.

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_cst.h"
#include "core/snapshot.h"
#include "exec/batch_runner.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

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
      "Figure 8 — CST efficiency: global vs ls-naive vs ls-li vs ls-lg",
      "local search up to 2 orders of magnitude faster than global; "
      "advantage grows with k; ls-li best and near-monotone decreasing",
      "ls-li mean time far below global for medium/large k on every "
      "dataset; ls-naive between the two; global flat in k");

  for (const std::string& name : StandInNames()) {
    const auto snapshot = std::make_shared<const Snapshot>(
        Snapshot::Build(std::move(LoadStandIn(name).graph)));
    const Graph& g = snapshot->graph;
    const CoreDecomposition cores = ComputeCores(g);
    LocalCstSolver solver(g, &snapshot->ordered, &snapshot->facts);
    // One runner per dataset: the whole k-sweep goes through the same
    // per-worker searchers the serving path uses.
    BatchRunner runner(snapshot);

    const uint32_t s = std::max(1u, cores.degeneracy / 10);
    std::printf("dataset %s: delta*=%u, s=%u\n", name.c_str(),
                cores.degeneracy, s);
    TableWriter table({"k", "global ms", "ls-naive ms", "ls-li ms",
                       "ls-lg ms", "batch served CST ms/q", "queries"});
    for (uint32_t mult = 1; mult <= 8; ++mult) {
      const uint32_t k = s * mult;
      const auto sample = SampleFromKCore(cores, k, queries, 7000 + k);
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
          .Cell(MeanStd(Summarize(t_lg)))
          .Num(MsPerQuery(runner.RunCst(sample, k)), 3)
          .Num(uint64_t{sample.size()});
    }
    table.Print("fig8_" + name);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
