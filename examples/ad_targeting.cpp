// Advertising on social networks — the paper's second motivating
// application (§1): users in one community share interests, so an
// advertiser seeds a campaign with known-interested users and pushes the
// ad to their communities.
//
// This example demonstrates the batch/throughput side of the library:
// a core-number index for instant community retrieval, a parallel batch
// of local CSM queries for comparison, and multi-vertex search to find the
// community spanned by several seed users at once.
//
//   ./build/examples/ad_targeting [--n=30000] [--seeds=8] [--threads=4]

#include <cstdio>
#include <set>

#include "core/core_index.h"
#include "core/kcore.h"
#include "core/searcher.h"
#include "exec/batch_runner.h"
#include "gen/lfr.h"
#include "graph/traversal.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace locs;
  const CommandLine cli(argc, argv);
  const auto n = static_cast<VertexId>(cli.GetInt("n", 30000));
  const auto num_seeds = static_cast<size_t>(cli.GetInt("seeds", 8));
  const auto threads = static_cast<unsigned>(cli.GetInt("threads", 4));

  gen::LfrParams params;
  params.n = n;
  params.mu = 0.12;
  params.min_degree = 5;
  params.max_degree = 80;
  params.min_community = 15;
  params.max_community = 120;
  params.seed = 99;
  const MappedSubgraph net = ExtractLargestComponent(gen::Lfr(params).graph);
  const Graph& g = net.graph;
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
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  WallTimer batch_timer;
  const auto communities =
      SolveCsmBatch(g, &ordered, &facts, seeds, {}, threads);
  std::printf("\nper-seed communities (%u threads, %.1fms total):\n",
              threads, batch_timer.Millis());
  std::set<VertexId> audience;
  for (size_t i = 0; i < seeds.size(); ++i) {
    std::printf("  seed %-6u -> community of %5zu users (δ=%u)\n",
                seeds[i], communities[i].members.size(),
                communities[i].min_degree);
    audience.insert(communities[i].members.begin(),
                    communities[i].members.end());
  }
  std::printf("combined audience: %zu users\n", audience.size());

  // --- Option B: one shared community spanning all seeds ----------------
  CommunitySearcher searcher{Graph(g)};
  WallTimer multi_timer;
  const Community shared = *searcher.CsmMulti(seeds);
  std::printf("\ncommunity spanning all %zu seeds: %zu users, δ=%u "
              "(%.1fms)\n",
              seeds.size(), shared.members.size(), shared.min_degree,
              multi_timer.Millis());

  // --- Option C: index for campaign-scale retrieval ---------------------
  WallTimer index_timer;
  const CoreIndex index(g);
  const double build_ms = index_timer.Millis();
  WallTimer query_timer;
  size_t total = 0;
  for (VertexId seed : seeds) {
    total += MaxCoreComponentOf(g, index.core_numbers().span(), seed).size();
  }
  std::printf("\ncore index: built in %.1fms; %zu community retrievals in "
              "%.2fms (maximal communities, %zu users total)\n",
              build_ms, seeds.size(), query_timer.Millis(), total);
  std::printf("\nRule of thumb: batch local search for few seeds, the "
              "index when the campaign issues thousands of retrievals.\n");
  return 0;
}
