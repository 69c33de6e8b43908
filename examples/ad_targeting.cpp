// Advertising on social networks — the paper's second motivating
// application (§1): users in one community share interests, so an
// advertiser seeds a campaign with known-interested users and pushes the
// ad to their communities.
//
// This example demonstrates the batch/throughput side of the library:
// a parallel batch of CSM queries, each answered from the core-number
// index, and multi-vertex search to find the community spanned by
// several seed users at once. Both bind one shared snapshot.
//
//   ./build/examples/ad_targeting [--n=30000] [--seeds=8] [--threads=4]

#include <cstdio>
#include <memory>
#include <set>

#include "core/searcher.h"
#include "core/snapshot.h"
#include "exec/batch_runner.h"
#include "gen/lfr.h"
#include "graph/subgraph.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace locs;
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"n", "seeds", "threads"};
  VertexId n = 30000;
  size_t num_seeds = 8;
  unsigned threads = 4;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "n", &n, &error) ||
      !ReadWhole(cli, "seeds", &num_seeds, &error) ||
      !ReadWhole(cli, "threads", &threads, &error)) {
    return FlagError(error);
  }
  if (n == 0) return FlagError("--n must be at least 1");

  gen::LfrParams params;
  params.n = n;
  params.mu = 0.12;
  params.min_degree = 5;
  params.max_degree = 80;
  params.min_community = 15;
  params.max_community = 120;
  params.seed = 99;
  const auto snapshot = std::make_shared<const Snapshot>(Snapshot::Build(
      ExtractLargestComponent(gen::Lfr(params).graph).graph));
  const Graph& g = snapshot->graph;
  std::printf("social network: %u users, %lu edges\n", g.NumVertices(),
              static_cast<unsigned long>(g.NumEdges()));

  // Seed users: the advertiser's known clickers — pick spread-out,
  // well-connected users.
  Rng rng(7);
  std::vector<VertexId> seeds;
  while (seeds.size() < num_seeds) {
    const auto v = static_cast<VertexId>(rng.Below(g.NumVertices()));
    if (g.Degree(v) >= 12) seeds.push_back(v);
  }

  // --- Option A: per-seed communities via a parallel batch -------------
  BatchRunner runner(snapshot);
  BatchLimits limits;
  limits.num_threads = threads;
  const BatchResult batch = runner.RunCsm(seeds, limits);
  std::printf("\nper-seed communities (%u threads, %.1fms total):\n",
              threads, batch.stats.wall_ms);
  std::set<VertexId> audience;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const Community& community = *batch.results[i];
    std::printf("  seed %-6u -> community of %5zu users (δ=%u)\n",
                seeds[i], community.members.size(), community.min_degree);
    audience.insert(community.members.begin(), community.members.end());
  }
  std::printf("combined audience: %zu users\n", audience.size());

  // --- Option B: one shared community spanning all seeds ----------------
  CommunitySearcher searcher(snapshot);
  WallTimer multi_timer;
  const Community shared = *searcher.CsmMulti(seeds);
  std::printf("\ncommunity spanning all %zu seeds: %zu users, δ=%u "
              "(%.1fms)\n",
              seeds.size(), shared.members.size(), shared.min_degree,
              multi_timer.Millis());
  return 0;
}
