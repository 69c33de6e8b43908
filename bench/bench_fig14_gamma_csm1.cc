// Figure 14: γ's effect on CSM1 — the quality ratio
//   r_a = Σ δ(H') / Σ δ(H*)
// and the time ratio
//   r_t = Σ t_CSM1 / Σ t_global
// as γ sweeps 1..15, per dataset.
//
// Paper's shape: both r_t and r_a decrease as γ grows, but performance
// drops much faster than quality — there is a critical γ before which a
// tiny quality loss buys a large speedup (the dotted lines at γ≈9..13).

#include <cstdio>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/global.h"
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
      "Figure 14 — γ's effect on CSM1 (quality ratio r_a, time ratio r_t)",
      "r_t collapses orders of magnitude while r_a stays near 1.0 until a "
      "critical γ; users trade quality for speed smoothly",
      "r_t dropping steeply with γ; r_a staying close to 1.0 for small γ "
      "and degrading slowly");

  for (const std::string& name : StandInNames()) {
    Dataset dataset = LoadStandIn(name);
    const Graph& g = dataset.graph;
    const GraphFacts facts = GraphFacts::Compute(g);
    const OrderedAdjacency ordered(g);
    LocalCsmSolver solver(g, &ordered, &facts);

    const auto sample = SampleWithDegreeAtLeast(g, 10, queries, 8800);
    // Global reference: time and optimal goodness per query.
    double global_ms = 0.0;
    double opt_sum = 0.0;
    for (VertexId v0 : sample) {
      Community best;
      global_ms += TimeMs([&] { best = *GlobalCsm(g, v0); });
      opt_sum += best.min_degree;
    }
    if (opt_sum == 0.0) opt_sum = 1.0;

    std::printf("dataset %s\n", name.c_str());
    TableWriter table({"gamma", "r_t", "r_a"});
    for (int gamma = 1; gamma <= 15; ++gamma) {
      CsmOptions options;
      options.candidate_rule = CsmCandidateRule::kFromVisited;
      options.gamma = gamma;
      double local_ms = 0.0;
      double local_sum = 0.0;
      for (VertexId v0 : sample) {
        Community community;
        local_ms += TimeMs([&] { community = *solver.Solve(v0, options); });
        local_sum += community.min_degree;
      }
      table.Row()
          .Num(int64_t{gamma})
          .Num(local_ms / global_ms, 4)
          .Num(local_sum / opt_sum, 4);
    }
    table.Print("fig14_" + name);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
