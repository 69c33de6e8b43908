// Figure 17: sensitivity to the clearness of community structure — LFR
// graphs with mixing parameter μ swept 0.1..0.5: (a) CST global vs local,
// (b) CSM2 vs global, (c) CSM1's r_t / r_a trade-off.
//
// Paper's shape: local search stays significantly better than global for
// every μ; both get slower as μ grows (vaguer communities ⇒ larger
// answers and cores); CSM1's trade-off curve is robust to μ.

#include <cstdio>
#include <limits>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "graph/ordering.h"
#include "util/cli.h"
#include "util/table.h"

namespace locs::bench {
namespace {

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"queries", "k", "n"};
  size_t queries = 25;
  uint32_t k = 25;
  uint64_t unscaled_n = 100000;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error) ||
      !ReadWhole(cli, "k", &k, &error) ||
      !ReadWhole(cli, "n", &unscaled_n, &error)) {
    return FlagError(error);
  }
  const auto n = static_cast<VertexId>(static_cast<double>(unscaled_n) *
                                      BenchScaleFromEnv());

  PrintBanner(
      "Figure 17 — sensitivity to community clearness (μ = 0.1 .. 0.5)",
      "ls-li and CSM1 consistently beat global across μ; CSM2 close to "
      "global but still better; everything slows as μ grows",
      "every row: local CST ms < global CST ms and global slows as μ "
      "grows; CSM1 r_t << 1 with r_a >= ~0.85 (γ past the Fig-14 knee); "
      "CSM2 tracks a small multiple of global (see EXPERIMENTS.md on the "
      "global-baseline strength)");

  TableWriter cst_table({"mu", "global CST ms", "ls-li CST ms"});
  TableWriter csm2_table({"mu", "global CSM ms", "CSM2 ms"});
  TableWriter csm1_table({"mu", "r_t", "r_a"});
  for (int mu10 = 1; mu10 <= 5; ++mu10) {
    const double mu = mu10 / 10.0;
    gen::LfrParams params;
    params.n = n;
    params.mu = mu;
    params.min_degree = 5;
    params.max_degree = 100;
    params.min_community = 20;
    params.max_community = 200;
    params.seed = 2700 + mu10;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "lfr_mu%02d_%u", mu10, params.n);
    Graph g = CachedLfrComponent(params, tag);
    const CoreDecomposition cores = ComputeCores(g);
    const GraphFacts facts = GraphFacts::Compute(g);
    const OrderedAdjacency ordered(g);
    LocalCstSolver cst_solver(g, &ordered, &facts);
    LocalCsmSolver csm_solver(g, &ordered, &facts);

    const auto cst_sample = SampleFromKCore(cores, k, queries, 2121);
    double g_cst = 0.0;
    double l_cst = 0.0;
    for (VertexId v0 : cst_sample) {
      g_cst += TimeMs([&] { GlobalCst(g, v0, k); });
      l_cst += TimeMs([&] { cst_solver.Solve(v0, k); });
    }
    const auto n_cst =
        static_cast<double>(cst_sample.empty() ? 1 : cst_sample.size());
    cst_table.Row().Num(mu, 1).Num(g_cst / n_cst, 2).Num(l_cst / n_cst, 2);

    const auto csm_sample = SampleWithDegreeAtLeast(g, 10, queries, 2222);
    double g_csm = 0.0;
    double t_csm2 = 0.0;
    double t_csm1 = 0.0;
    double opt_sum = 0.0;
    double csm1_sum = 0.0;
    for (VertexId v0 : csm_sample) {
      Community best;
      g_csm += TimeMs([&] { best = *GlobalCsm(g, v0); });
      opt_sum += best.min_degree;
      CsmOptions options;
      options.candidate_rule = CsmCandidateRule::kFromNaive;
      options.gamma = 6.0;
      t_csm2 += TimeMs([&] { csm_solver.Solve(v0, options); });
      options.candidate_rule = CsmCandidateRule::kFromVisited;
      options.gamma = 7.0;  // near the Figure-14 critical point: large
                            // speedup at a modest quality cost
      Community local;
      t_csm1 += TimeMs([&] { local = *csm_solver.Solve(v0, options); });
      csm1_sum += local.min_degree;
    }
    const auto n_csm = static_cast<double>(csm_sample.size());
    csm2_table.Row()
        .Num(mu, 1)
        .Num(g_csm / n_csm, 2)
        .Num(t_csm2 / n_csm, 2);
    csm1_table.Row()
        .Num(mu, 1)
        .Num(t_csm1 / (g_csm > 0 ? g_csm : 1.0), 4)
        .Num(csm1_sum / (opt_sum > 0 ? opt_sum : 1.0), 4);
  }
  std::printf("(a) CST\n");
  cst_table.Print("fig17a");
  std::printf("\n(b) CSM2\n");
  csm2_table.Print("fig17b");
  std::printf("\n(c) CSM1 trade-off\n");
  csm1_table.Print("fig17c");
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
