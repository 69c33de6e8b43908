#include "core/kcore.h"

#include "util/bucket_queue.h"

namespace locs {

CoreDecomposition ComputeCores(const Graph& graph, obs::PhaseStats* phase) {
  const VertexId n = graph.NumVertices();
  CoreDecomposition result;
  result.core.resize(n);
  result.peel_order.reserve(n);
  if (n == 0) return result;

  std::vector<uint32_t> degree(n);
  for (VertexId v = 0; v < n; ++v) degree[v] = graph.Degree(v);
  MinBucketQueue queue(degree);

  uint32_t current = 0;
  while (!queue.Empty()) {
    const uint32_t key = queue.MinKey();
    if (key > current) current = key;
    const VertexId v = queue.PopMin();
    result.core[v] = current;
    result.peel_order.push_back(v);
    if (phase != nullptr) {
      ++phase->vertices_visited;
      phase->edges_scanned += graph.Degree(v);
    }
    for (VertexId w : graph.Neighbors(v)) {
      if (!queue.Popped(w) && queue.Key(w) > current) {
        queue.DecrementKey(w);
      }
    }
  }
  result.degeneracy = current;
  return result;
}

std::vector<VertexId> KCoreMembers(const CoreDecomposition& cores,
                                   uint32_t k) {
  std::vector<VertexId> members;
  for (VertexId v = 0; v < cores.core.size(); ++v) {
    if (cores.core[v] >= k) members.push_back(v);
  }
  return members;
}

std::vector<VertexId> KCoreComponentOf(const Graph& graph,
                                       std::span<const uint32_t> core,
                                       VertexId v0, uint32_t k) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  LOCS_CHECK_EQ(core.size(), graph.NumVertices());
  if (core[v0] < k) return {};
  std::vector<uint8_t> seen(graph.NumVertices(), 0);
  std::vector<VertexId> component;
  component.push_back(v0);
  seen[v0] = 1;
  for (size_t head = 0; head < component.size(); ++head) {
    const VertexId u = component[head];
    for (VertexId w : graph.Neighbors(u)) {
      if (seen[w] == 0 && core[w] >= k) {
        seen[w] = 1;
        component.push_back(w);
      }
    }
  }
  return component;
}

std::vector<VertexId> MaxCoreComponentOf(const Graph& graph,
                                         std::span<const uint32_t> core,
                                         VertexId v0) {
  LOCS_CHECK_LT(v0, graph.NumVertices());
  return KCoreComponentOf(graph, core, v0, core[v0]);
}

}  // namespace locs
