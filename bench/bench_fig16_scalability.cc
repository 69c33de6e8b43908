// Figure 16: scalability on synthetic LFR networks (α=2, β=3, μ=0.1),
// graph size swept upward — (a) CST: global vs local (ls-li);
// (b) CSM: global vs CSM1 vs CSM2.
//
// Paper's shape (200K..1M vertices): local search consistently beats
// global even at millions of vertices; CSM1 outperforms global by ~3
// orders of magnitude at 100% accuracy; local run time grows more slowly
// than global as the graph grows.
//
// Default sizes here are 100K..500K (scaled by LOCS_BENCH_SCALE) so the
// whole sweep stays fast; pass LOCS_BENCH_SCALE=2 for the paper's range.

#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/snapshot.h"
#include "exec/batch_runner.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace locs::bench {
namespace {

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"queries", "k"};
  size_t queries = 25;
  uint32_t k = 25;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error) ||
      !ReadWhole(cli, "k", &k, &error)) {
    return FlagError(error);
  }
  const double scale = BenchScaleFromEnv();

  PrintBanner(
      "Figure 16 — scalability on LFR graphs (α=2, β=3, μ=0.1)",
      "local search beats global at every size; gap does not shrink as "
      "graphs grow; CSM1 ~3 orders faster than global at 100% accuracy",
      "local columns growing more slowly than the global column");

  TableWriter cst_table(
      {"|V|", "global CST ms", "ls-li CST ms", "batch served CST ms/q"});
  TableWriter csm_table({"|V|", "global CSM ms", "CSM1 ms", "CSM2 ms",
                         "batch served CSM ms/q", "CSM1 quality"});
  const VertexId base_sizes[] = {100000, 200000, 300000, 400000, 500000};
  for (VertexId base : base_sizes) {
    gen::LfrParams params;
    params.n = static_cast<VertexId>(static_cast<double>(base) * scale);
    params.degree_exponent = 2.0;
    params.community_exponent = 3.0;
    params.mu = 0.1;
    params.min_degree = 5;
    params.max_degree = 100;
    params.min_community = 20;
    params.max_community = 200;
    params.seed = 1600 + base / 1000;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "lfr_scal_%u", params.n);
    const auto snapshot = std::make_shared<const Snapshot>(
        Snapshot::Build(CachedLfrComponent(params, tag)));
    const Graph& g = snapshot->graph;
    const CoreDecomposition cores = ComputeCores(g);
    LocalCstSolver cst_solver(g, &snapshot->ordered, &snapshot->facts);
    LocalCsmSolver csm_solver(g, &snapshot->ordered, &snapshot->facts);
    BatchRunner runner(snapshot);

    // CST sweep.
    const auto cst_sample = SampleFromKCore(cores, k, queries, 1717);
    double g_cst = 0.0;
    double l_cst = 0.0;
    for (VertexId v0 : cst_sample) {
      g_cst += TimeMs([&] { GlobalCst(g, v0, k); });
      l_cst += TimeMs([&] { cst_solver.Solve(v0, k); });
    }
    const auto n_cst = static_cast<double>(
        cst_sample.empty() ? 1 : cst_sample.size());
    cst_table.Row()
        .Cell(FormatCount(g.NumVertices()))
        .Num(g_cst / n_cst, 2)
        .Num(l_cst / n_cst, 2)
        .Num(MsPerQuery(runner.RunCst(cst_sample, k)), 2);

    // CSM sweep.
    const auto csm_sample = SampleWithDegreeAtLeast(g, 10, queries, 1818);
    double g_csm = 0.0;
    double c1 = 0.0;
    double c2 = 0.0;
    double opt_sum = 0.0;
    double csm1_sum = 0.0;
    for (VertexId v0 : csm_sample) {
      Community best;
      g_csm += TimeMs([&] { best = *GlobalCsm(g, v0); });
      opt_sum += best.min_degree;
      CsmOptions options;
      options.candidate_rule = CsmCandidateRule::kFromVisited;
      options.gamma = 4.0;  // the paper's CSM1 scalability run kept 100%
                            // accuracy; a moderate γ does so here as well
      Community local;
      c1 += TimeMs([&] { local = *csm_solver.Solve(v0, options); });
      csm1_sum += local.min_degree;
      options.candidate_rule = CsmCandidateRule::kFromNaive;
      c2 += TimeMs([&] { csm_solver.Solve(v0, options); });
    }
    const auto n_csm = static_cast<double>(csm_sample.size());
    csm_table.Row()
        .Cell(FormatCount(g.NumVertices()))
        .Num(g_csm / n_csm, 2)
        .Num(c1 / n_csm, 2)
        .Num(c2 / n_csm, 2)
        .Num(MsPerQuery(runner.RunCsm(csm_sample)), 2)
        .Num(csm1_sum / (opt_sum > 0 ? opt_sum : 1.0), 4);
  }
  std::printf("(a) CST\n");
  cst_table.Print("fig16a");
  std::printf("\n(b) CSM\n");
  csm_table.Print("fig16b");
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
