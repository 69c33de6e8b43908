#include "core/snapshot.h"

#include <utility>

namespace locs {

Snapshot Snapshot::Build(Graph graph) {
  GraphFacts facts = GraphFacts::Compute(graph);
  OrderedAdjacency ordered(graph);
  CoreIndex index(graph);
  return Snapshot{std::move(graph), facts, std::move(ordered),
                  std::move(index)};
}

}  // namespace locs
