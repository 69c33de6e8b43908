// Figure 15: γ's effect on CSM2's total run time.
//
// Paper's shape: quality is unaffected by γ in CSM2 (Theorem 7), but run
// time is U-shaped in γ: small γ over-spends in the expansion phase,
// large γ hands a poor δ(H) to the Cnaive/maxcore phase; a mid-range γ
// (typically 4..12) minimizes the total.

#include <cstdio>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/local_csm.h"
#include "graph/ordering.h"
#include "util/cli.h"
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
      "Figure 15 — γ's effect on CSM2 run time (quality unaffected)",
      "per-dataset U-shaped curves with minima around γ = 4..12",
      "total ms varying with γ and a non-extreme γ achieving the minimum "
      "(exact position depends on the network structure)");

  for (const std::string& name : StandInNames()) {
    Dataset dataset = LoadStandIn(name);
    const Graph& g = dataset.graph;
    const GraphFacts facts = GraphFacts::Compute(g);
    const OrderedAdjacency ordered(g);
    LocalCsmSolver solver(g, &ordered, &facts);

    const auto sample = SampleWithDegreeAtLeast(g, 10, queries, 9900);
    std::printf("dataset %s\n", name.c_str());
    TableWriter table({"gamma", "total ms", "mean goodness"});
    for (int gamma = 0; gamma <= 16; gamma += 2) {
      CsmOptions options;
      options.candidate_rule = CsmCandidateRule::kFromNaive;
      options.gamma = gamma;
      double total_ms = 0.0;
      double goodness = 0.0;
      for (VertexId v0 : sample) {
        Community community;
        total_ms += TimeMs([&] { community = *solver.Solve(v0, options); });
        goodness += community.min_degree;
      }
      table.Row()
          .Num(int64_t{gamma})
          .Num(total_ms, 1)
          .Num(goodness / static_cast<double>(sample.size()), 3);
    }
    table.Print("fig15_" + name);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
