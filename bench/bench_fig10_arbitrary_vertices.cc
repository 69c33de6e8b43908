// Figure 10: CST performance over arbitrary query vertices — vertices
// with degree >= k that are not necessarily inside the k-core, so a valid
// community may not exist.
//
// Paper's shape: ls-li beats global in almost all cases; ls-li's mean
// time *decreases* as k grows (smaller search space), while global is
// oblivious to k and stays flat.

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
  static constexpr std::string_view kFlags[] = {"queries", "dataset"};
  size_t queries = 40;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error)) {
    return FlagError(error);
  }
  const std::string name = cli.GetString("dataset", "dblp-sim");

  PrintBanner(
      "Figure 10 — performance over arbitrary query vertices (deg >= k)",
      "ls-li better than global in almost all cases; ls-li decreases "
      "with k while global stays flat",
      "the ls-li column shrinking as k grows; the global column roughly "
      "constant; some queries have no answer (reported separately)");

  Dataset dataset = LoadStandIn(name);
  const Graph& g = dataset.graph;
  const CoreDecomposition cores = ComputeCores(g);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);

  const uint32_t s = std::max(1u, cores.degeneracy / 10);
  std::printf("dataset %s: delta*=%u, s=%u\n", name.c_str(),
              cores.degeneracy, s);
  TableWriter table(
      {"k", "global ms", "ls-li ms", "answered", "queries"});
  for (uint32_t mult = 1; mult <= 10; ++mult) {
    const uint32_t k = s * mult;
    const auto sample = SampleWithDegreeAtLeast(g, k, queries, 1500 + k);
    if (sample.empty()) continue;
    std::vector<double> t_global;
    std::vector<double> t_li;
    uint64_t answered = 0;
    for (VertexId v0 : sample) {
      bool has = false;
      t_global.push_back(TimeMs([&] { has = GlobalCst(g, v0, k).has_value(); }));
      answered += has ? 1 : 0;
      t_li.push_back(TimeMs([&] { solver.Solve(v0, k); }));
    }
    table.Row()
        .Num(uint64_t{k})
        .Cell(MeanStd(Summarize(t_global)))
        .Cell(MeanStd(Summarize(t_li)))
        .Num(answered)
        .Num(uint64_t{sample.size()});
  }
  table.Print("fig10_" + name);
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
