// Snapshot — one graph plus every offline precomputation the local
// solvers read.
//
// The paper's solvers consult three whole-graph precomputations: the
// facts behind the Theorem-3/5 bounds, the §4.3.2 degree-ordered
// adjacency, and the core numbers that decide whether CST(k) exists at
// all (Lemma 3/4, served by CoreIndex). A Snapshot holds the graph and
// those three together. It is exactly what a `.limg` image stores, so it
// is either built here from a Graph or mapped by store::LoadGraphImage.
//
// Immutable once built; any number of CommunitySearchers (one per
// thread) may bind the same snapshot through a shared_ptr.

#ifndef LOCS_CORE_SNAPSHOT_H_
#define LOCS_CORE_SNAPSHOT_H_

#include "core/core_index.h"
#include "core/local_cst.h"
#include "graph/graph.h"
#include "graph/ordering.h"

namespace locs {

struct Snapshot {
  Graph graph;
  GraphFacts facts;
  OrderedAdjacency ordered;
  CoreIndex index;

  /// Derives facts, ordered adjacency and core index from `graph`.
  static Snapshot Build(Graph graph);
};

}  // namespace locs

#endif  // LOCS_CORE_SNAPSHOT_H_
