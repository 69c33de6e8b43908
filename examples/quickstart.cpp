// Quickstart: build a graph, run the two community-search queries the
// library answers (CST and CSM), and inspect the results.
//
//   cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/searcher.h"
#include "gen/classic.h"

int main() {
  using namespace locs;

  // The running example graph from the paper (Figure 1): vertices a..n
  // mapped to ids 0..13.
  Graph graph = gen::PaperFigure1();
  std::printf("graph: %u vertices, %lu edges\n", graph.NumVertices(),
              static_cast<unsigned long>(graph.NumEdges()));

  // A CommunitySearcher builds the graph's Snapshot (graph facts for the
  // analytic bounds, degree-ordered adjacency for fast expansion, the
  // core index for exact non-existence) and binds the solvers to it.
  CommunitySearcher searcher(std::move(graph));

  const VertexId a = gen::Figure1Vertex('a');

  // --- CSM: the best community for a vertex ------------------------------
  // Finds a connected subgraph containing `a` whose minimum internal
  // degree is maximal.
  const Community best = *searcher.Csm(a);
  std::printf("\nbest community for 'a' (min degree %u):", best.min_degree);
  for (VertexId v : best.members) {
    std::printf(" %s", gen::Figure1Label(v).c_str());
  }
  std::printf("\n");

  // --- CST(k): a community meeting a threshold ---------------------------
  // Finds any connected subgraph containing `a` with minimum degree >= k,
  // or reports that none exists.
  for (uint32_t k = 1; k <= 4; ++k) {
    const auto community = searcher.Cst(a, k);
    if (!community.has_value()) {
      std::printf("CST(%u) for 'a': no community\n", k);
      continue;
    }
    std::printf("CST(%u) for 'a' (δ=%u, %zu members):", k,
                community->min_degree, community->members.size());
    for (VertexId v : community->members) {
      std::printf(" %s", gen::Figure1Label(v).c_str());
    }
    std::printf("\n");
  }

  // --- Query statistics ---------------------------------------------------
  const obs::QueryTelemetry telemetry = searcher.Cst(a, 3).telemetry;
  std::printf("\nCST(3) visited %lu vertices and scanned %lu adjacency "
              "entries (graph has %lu); fallback used: %s\n",
              static_cast<unsigned long>(telemetry.TotalVisited()),
              static_cast<unsigned long>(telemetry.TotalScanned()),
              static_cast<unsigned long>(2 * searcher.graph().NumEdges()),
              telemetry.used_global_fallback ? "yes" : "no");
  return 0;
}
