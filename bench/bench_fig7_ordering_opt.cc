// Figure 7: effectiveness of the offline adjacency-ordering optimization
// (§4.3.2) — ls-li and ls-lg with and without degree-descending adjacency,
// on the DBLP stand-in, across k.
//
// Paper's shape: the optimized variants ("opt") are clearly faster than
// the unoptimized ones ("non-opt") for most k; the one-off sorting cost
// is linear (703ms on DBLP, Table 2). The "scanned" columns total the
// edges each variant scans over the k's sample: exact counters, so the
// §4.3.2 saving shows without timing noise.

#include <cstdio>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
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
  static constexpr std::string_view kFlags[] = {"queries", "dataset"};
  size_t queries = 40;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error)) {
    return FlagError(error);
  }
  const std::string name = cli.GetString("dataset", "dblp-sim");

  PrintBanner(
      "Figure 7 — sorted-adjacency expansion: opt vs non-opt",
      "ls-li(opt) and ls-lg(opt) clearly faster than their non-opt "
      "variants across most k on DBLP",
      "the 'opt' columns at or below the 'non-opt' columns, with the gap "
      "largest at mid-range k where low-degree tails dominate scans");

  Dataset dataset = LoadStandIn(name);
  const Graph& g = dataset.graph;
  const CoreDecomposition cores = ComputeCores(g);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver opt_solver(g, &ordered, &facts);
  LocalCstSolver plain_solver(g, nullptr, &facts);

  const uint32_t s = std::max(1u, cores.degeneracy / 10);
  std::printf("dataset %s: delta*=%u, s=%u\n", name.c_str(),
              cores.degeneracy, s);
  TableWriter table({"k", "ls-li opt ms", "ls-li non-opt ms",
                     "ls-lg opt ms", "ls-lg non-opt ms", "ls-li opt scanned",
                     "ls-li non-opt scanned", "ls-lg opt scanned",
                     "ls-lg non-opt scanned"});
  for (uint32_t mult = 1; mult <= 8; ++mult) {
    const uint32_t k = s * mult;
    const auto sample = SampleFromKCore(cores, k, queries, 7700 + k);
    if (sample.empty()) continue;
    std::vector<double> li_opt;
    std::vector<double> li_plain;
    std::vector<double> lg_opt;
    std::vector<double> lg_plain;
    uint64_t scanned[4] = {};  // li opt, li non-opt, lg opt, lg non-opt
    auto timed = [&](LocalCstSolver& solver, VertexId v0,
                     const CstOptions& options, uint64_t& total) {
      return TimeMs([&] {
        total += solver.Solve(v0, k, options).telemetry.TotalScanned();
      });
    };
    for (VertexId v0 : sample) {
      CstOptions options;
      options.strategy = Strategy::kLI;
      li_opt.push_back(timed(opt_solver, v0, options, scanned[0]));
      li_plain.push_back(timed(plain_solver, v0, options, scanned[1]));
      options.strategy = Strategy::kLG;
      lg_opt.push_back(timed(opt_solver, v0, options, scanned[2]));
      lg_plain.push_back(timed(plain_solver, v0, options, scanned[3]));
    }
    table.Row()
        .Num(uint64_t{k})
        .Cell(MeanStd(Summarize(li_opt)))
        .Cell(MeanStd(Summarize(li_plain)))
        .Cell(MeanStd(Summarize(lg_opt)))
        .Cell(MeanStd(Summarize(lg_plain)))
        .Num(scanned[0])
        .Num(scanned[1])
        .Num(scanned[2])
        .Num(scanned[3]);
  }
  table.Print("fig7_" + name);
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
