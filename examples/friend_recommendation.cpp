// Friend recommendation — the paper's first motivating application (§1).
//
// Given a social network and a user u, recommend the members of u's best
// community that are not yet u's friends. The searcher reads that
// community off its core index with one BFS over its members, so the
// recommendation costs what the community's size costs, even on large
// networks.
//
//   ./build/examples/friend_recommendation [--n=20000] [--user=123]

#include <cstdio>
#include <set>

#include "core/searcher.h"
#include "gen/lfr.h"
#include "graph/traversal.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace locs;
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"n", "user"};
  VertexId n = 20000;
  uint64_t user_flag = 0;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "n", &n, &error) ||
      !ReadWhole(cli, "user", &user_flag, &error)) {
    return FlagError(error);
  }
  if (n == 0) return FlagError("--n must be at least 1");

  // A synthetic social network with planted friend circles.
  gen::LfrParams params;
  params.n = n;
  params.mu = 0.15;
  params.min_degree = 4;
  params.max_degree = 60;
  params.min_community = 10;
  params.max_community = 80;
  params.seed = 7;
  WallTimer gen_timer;
  const gen::LfrGraph network = gen::Lfr(params);
  const MappedSubgraph main_component =
      ExtractLargestComponent(network.graph);
  std::printf("social network: %u users, %lu friendships (built in %.0fms)\n",
              main_component.graph.NumVertices(),
              static_cast<unsigned long>(main_component.graph.NumEdges()),
              gen_timer.Millis());

  CommunitySearcher searcher(Graph(main_component.graph));
  // Default to a well-connected user: low-degree users' maximal
  // communities degenerate to the whole low-k core (the paper's Figure 12
  // observation), which makes for poor recommendations.
  VertexId user;
  if (cli.Has("user")) {
    user = static_cast<VertexId>(user_flag %
                                 searcher.graph().NumVertices());
  } else {
    user = 0;
    for (VertexId v = 0; v < searcher.graph().NumVertices(); ++v) {
      if (searcher.graph().Degree(v) > searcher.graph().Degree(user)) {
        user = v;
      }
    }
  }

  WallTimer query_timer;
  const SearchResult result = searcher.Csm(user);
  const Community& circle = *result;
  const double ms = query_timer.Millis();

  const auto friends = searcher.graph().Neighbors(user);
  const std::set<VertexId> friend_set(friends.begin(), friends.end());
  std::printf("\nuser %u has %zu friends; best community has %zu members "
              "(min degree %u), found in %.2fms visiting %lu vertices\n",
              user, friend_set.size(), circle.members.size(),
              circle.min_degree, ms,
              static_cast<unsigned long>(result.telemetry.TotalVisited()));

  std::printf("recommendations (community members who are not friends "
              "yet):");
  int shown = 0;
  for (VertexId v : circle.members) {
    if (v == user || friend_set.count(v) > 0) continue;
    std::printf(" %u", v);
    if (++shown == 15) {
      std::printf(" ...");
      break;
    }
  }
  if (shown == 0) std::printf(" (none — the community is the friend set)");
  std::printf("\n");
  return 0;
}
