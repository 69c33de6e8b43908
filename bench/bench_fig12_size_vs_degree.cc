// Figure 12: community size vs query-vertex degree on the DBLP stand-in,
// used in §6.1.4 to guide the selection of γ.
//
// Paper's shape: the average community size *decreases* as the degree of
// the query vertex increases (high-degree vertices sit in dense cores
// whose maximal communities are comparatively small; low-degree vertices
// attach to huge low-k cores).

#include <cstdio>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "core/global.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace locs::bench {
namespace {

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"per-degree", "dataset"};
  size_t per_degree = 10;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "per-degree", &per_degree, &error)) {
    return FlagError(error);
  }
  const std::string name = cli.GetString("dataset", "dblp-sim");

  PrintBanner(
      "Figure 12 — community size vs query-vertex degree",
      "average maximal-community size decreases as the query vertex's "
      "degree grows (measured on DBLP with global search)",
      "a broadly decreasing 'avg community size' column");

  Dataset dataset = LoadStandIn(name);
  const Graph& g = dataset.graph;

  // Bucket vertices by degree.
  const uint32_t degrees[] = {3, 5, 7, 9, 11, 13, 15, 17, 19};
  TableWriter table({"degree", "avg community size", "sampled"});
  Rng rng(606);
  for (uint32_t d : degrees) {
    std::vector<VertexId> pool;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (g.Degree(v) == d) pool.push_back(v);
    }
    if (pool.empty()) continue;
    rng.Shuffle(pool);
    if (pool.size() > per_degree) pool.resize(per_degree);
    std::vector<double> sizes;
    for (VertexId v0 : pool) {
      sizes.push_back(
          static_cast<double>(GlobalCsm(g, v0)->members.size()));
    }
    table.Row()
        .Num(uint64_t{d})
        .Num(Summarize(sizes).mean, 1)
        .Num(uint64_t{pool.size()});
  }
  table.Print("fig12_" + name);
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
