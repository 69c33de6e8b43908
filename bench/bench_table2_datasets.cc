// Table 2: dataset statistics — vertex/edge counts, δ*(G) (the minimum
// degree of the maximum core), the offline adjacency-ordering cost
// ("Opt.(ms)" column), and the number of queries the exponential baseline
// (Algorithm 1) manages to answer within a bounded budget for
// k = 20, 40, 60.
//
// Paper's finding: the baseline solves almost no queries within a minute
// on any real graph (all zeros except tiny counts), which motivates the
// linear local-search framework.

#include <cstdio>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/baseline.h"
#include "core/kcore.h"
#include "graph/ordering.h"
#include "util/cli.h"
#include "util/guard.h"
#include "util/table.h"
#include "util/timer.h"

namespace locs::bench {
namespace {

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"queries", "budget", "millis"};
  size_t queries = 20;
  uint64_t budget = 100000;  // search steps per query; 0 = no limit
  // The paper allowed 1 minute per baseline query; scaled-down datasets
  // get a proportionally scaled-down wall budget.
  double millis = 50.0;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error) ||
      !ReadWhole(cli, "budget", &budget, &error) ||
      !ReadMs(cli, "millis", &millis, &error)) {
    return FlagError(error);
  }
  // Each baseline query runs under its own guard with these limits.
  QueryLimits limits;
  limits.deadline_ms = millis;
  limits.work_budget = budget;

  PrintBanner(
      "Table 2 — dataset statistics and baseline feasibility",
      "4 SNAP graphs; δ*(G) 52..360; ordering precompute 0.7..2.4s; the "
      "Algorithm-1 baseline answers almost no queries within 1 minute",
      "stand-in graphs show the same pattern: nontrivial δ*, cheap "
      "one-off ordering, and a baseline that mostly exhausts its budget");

  TableWriter table({"network", "#vertex", "#edge", "delta*(G)", "opt(ms)",
                     "k=20 solved", "k=40 solved", "k=60 solved",
                     "of queries"});
  for (const std::string& name : StandInNames()) {
    Dataset dataset = LoadStandIn(name);
    const Graph& g = dataset.graph;
    const CoreDecomposition cores = ComputeCores(g);

    WallTimer timer;
    OrderedAdjacency ordered(g);
    const double opt_ms = timer.Millis();

    uint64_t solved[3] = {0, 0, 0};
    const uint32_t ks[3] = {20, 40, 60};
    for (int i = 0; i < 3; ++i) {
      const uint32_t k = ks[i];
      const auto sample =
          SampleWithDegreeAtLeast(g, k, queries, 900 + k);
      for (VertexId v0 : sample) {
        QueryGuard guard(limits);
        if (!BaselineCst(g, v0, k, &guard).Interrupted()) ++solved[i];
      }
    }
    table.Row()
        .Cell(dataset.name)
        .Cell(FormatCount(g.NumVertices()))
        .Cell(FormatCount(g.NumEdges()))
        .Num(uint64_t{cores.degeneracy})
        .Num(opt_ms, 1)
        .Num(solved[0])
        .Num(solved[1])
        .Num(solved[2])
        .Num(uint64_t{queries});
  }
  table.Print("table2");
  std::printf(
      "\n'solved' counts queries the baseline finished (either way) within "
      "%.0fms / %lu search steps (0 = no limit); exhausted budgets mirror "
      "the paper's cannot-answer-within-a-minute entries.\n",
      millis, static_cast<unsigned long>(budget));
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
