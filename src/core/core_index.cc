#include "core/core_index.h"

#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/kcore.h"
#include "util/prefetch.h"

namespace locs {

namespace {

/// comp_size[v] for every v: one union-find pass adding the vertices in
/// descending core order. After the vertices of core number c are added
/// and joined to their neighbors of core >= c, each set is a component of
/// `core >= c`, so its size is read off for those vertices. Each edge is
/// unioned once: from its endpoint of lower core number, or of higher id
/// when both share a core number.
std::vector<uint32_t> ComponentSizes(const Graph& graph,
                                     std::span<const uint32_t> core,
                                     uint32_t degeneracy) {
  const VertexId n = graph.NumVertices();
  // A counting sort by core number, descending, ids ascending within a
  // level, so each level reads its adjacency runs in address order.
  // order[level_begin[l], level_begin[l + 1]) has core number
  // degeneracy - l.
  std::vector<uint32_t> level_begin(size_t{degeneracy} + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++level_begin[degeneracy - core[v] + 1];
  std::partial_sum(level_begin.begin(), level_begin.end(),
                   level_begin.begin());
  std::vector<VertexId> order(n);
  std::vector<uint32_t> next(level_begin.begin(), level_begin.end() - 1);
  for (VertexId v = 0; v < n; ++v) order[next[degeneracy - core[v]]++] = v;

  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  std::vector<uint32_t> set_size(n, 1);
  const auto find = [&parent](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  const uint64_t* const offsets = graph.offsets().data();
  const VertexId* const adjacency = graph.neighbors().data();
  std::vector<uint32_t> comp_size(n);
  for (uint32_t level = 0; level <= degeneracy; ++level) {
    const uint32_t c = degeneracy - level;
    const size_t begin = level_begin[level];
    const size_t end = level_begin[level + 1];
    for (size_t i = begin; i < end; ++i) {
      // Two-stage prefetch down the level, as in the searcher's BFS.
      if (i + 2 * kPrefetchDistance < end) {
        LOCS_PREFETCH(offsets + order[i + 2 * kPrefetchDistance]);
      }
      if (i + kPrefetchDistance < end) {
        const VertexId ahead = order[i + kPrefetchDistance];
        LOCS_PREFETCH(adjacency + offsets[ahead]);
        LOCS_PREFETCH(parent.data() + ahead);
      }
      const VertexId v = order[i];
      VertexId root = find(v);
      for (const VertexId w : graph.Neighbors(v)) {
        if (core[w] < c || (core[w] == c && w > v)) continue;
        VertexId other = find(w);
        if (other == root) continue;
        if (set_size[root] < set_size[other]) std::swap(root, other);
        parent[other] = root;
        set_size[root] += set_size[other];
      }
    }
    for (size_t i = begin; i < end; ++i) {
      comp_size[order[i]] = set_size[find(order[i])];
    }
  }
  return comp_size;
}

}  // namespace

CoreIndex::CoreIndex(const Graph& graph) {
  CoreDecomposition cores = ComputeCores(graph);
  degeneracy_ = cores.degeneracy;
  comp_size_ = ConstArray<uint32_t>(
      ComponentSizes(graph, cores.core, cores.degeneracy));
  core_ = ConstArray<uint32_t>(std::move(cores.core));
}

CoreIndex CoreIndex::FromParts(ConstArray<uint32_t> core,
                               ConstArray<uint32_t> comp_size,
                               uint32_t degeneracy) {
  CoreIndex index;
  index.core_ = std::move(core);
  index.comp_size_ = std::move(comp_size);
  index.degeneracy_ = degeneracy;
  return index;
}

}  // namespace locs
