// Figure 11: CSM performance — global vs CSM1 (γ → −∞, unconstrained
// first phase) vs CSM2.
//
// Paper's shape: CSM2 performs best; CSM1 with the size constraint
// removed is the slowest (it exhaustively expands before the maxcore
// step); global sits in between. Figure 14/15 then show how γ speeds
// CSM1 up dramatically.

#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/global.h"
#include "core/local_csm.h"
#include "core/snapshot.h"
#include "exec/batch_runner.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace locs::bench {
namespace {

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"queries"};
  size_t queries = 30;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error)) {
    return FlagError(error);
  }

  PrintBanner(
      "Figure 11 — CSM performance: global vs CSM1(γ→−∞) vs CSM2(γ=8)",
      "CSM2 fastest; CSM1 without budget slowest (search space "
      "exhaustively explored); both exact",
      "all three exact (quality 1.0). Against the literal greedy-deletion "
      "global baseline (the paper's §3.2 description) the local solvers "
      "compare as in the paper; our optimized bucket-peel global is a "
      "stronger baseline that the candidate-restricted passes do not beat "
      "per query (see EXPERIMENTS.md)");

  TableWriter table({"network", "global(peel) ms", "global(greedy) ms",
                     "CSM1 ms", "CSM2 ms", "batch served CSM ms/q",
                     "quality CSM1", "quality CSM2"});
  for (const std::string& name : StandInNames()) {
    const auto snapshot = std::make_shared<const Snapshot>(
        Snapshot::Build(std::move(LoadStandIn(name).graph)));
    const Graph& g = snapshot->graph;
    LocalCsmSolver solver(g, &snapshot->ordered, &snapshot->facts);
    BatchRunner runner(snapshot);

    // Query vertices with a degree floor: degree-2 queries make Theorem 5
    // vacuous (δ(H) <= 1 ⇒ unbounded budget) and degenerate every local
    // CSM into an exhaustive crawl.
    const auto sample = SampleWithDegreeAtLeast(g, 10, queries, 4400);
    std::vector<double> t_global;
    std::vector<double> t_greedy;
    std::vector<double> t_csm1;
    std::vector<double> t_csm2;
    double sum_opt = 0.0;
    double sum_csm1 = 0.0;
    double sum_csm2 = 0.0;
    for (VertexId v0 : sample) {
      Community best;
      t_global.push_back(TimeMs([&] { best = *GlobalCsm(g, v0); }));
      sum_opt += best.min_degree;
      t_greedy.push_back(TimeMs([&] { GreedyGlobalCsm(g, v0); }));

      CsmOptions options;
      options.candidate_rule = CsmCandidateRule::kFromVisited;
      options.gamma = -std::numeric_limits<double>::infinity();
      Community local;
      t_csm1.push_back(TimeMs([&] { local = *solver.Solve(v0, options); }));
      sum_csm1 += local.min_degree;

      options.candidate_rule = CsmCandidateRule::kFromNaive;
      options.gamma = 8.0;  // the Figure-15 sweet spot
      t_csm2.push_back(TimeMs([&] { local = *solver.Solve(v0, options); }));
      sum_csm2 += local.min_degree;
    }
    const double denom = sum_opt > 0 ? sum_opt : 1.0;
    table.Row()
        .Cell(name)
        .Cell(MeanStd(Summarize(t_global)))
        .Cell(MeanStd(Summarize(t_greedy)))
        .Cell(MeanStd(Summarize(t_csm1)))
        .Cell(MeanStd(Summarize(t_csm2)))
        .Num(MsPerQuery(runner.RunCsm(sample)), 3)
        .Num(sum_csm1 / denom, 3)
        .Num(sum_csm2 / denom, 3);
  }
  table.Print("fig11");
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
