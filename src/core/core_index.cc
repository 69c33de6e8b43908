#include "core/core_index.h"

#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/kcore.h"
#include "util/prefetch.h"

namespace locs {

namespace {

struct CoreForest {
  std::vector<uint32_t> node_of;
  std::vector<CoreForestNode> nodes;
};

/// The core forest: one union-find pass adding the vertices in
/// descending core order. After the vertices of core number c are added
/// and joined to their neighbors of core >= c, each set is a component of
/// `core >= c`. Every set that gained a vertex of core c gets a new node
/// at level c, and becomes the parent of the nodes of the sets it
/// absorbed. Each edge is unioned once: from its endpoint of lower core
/// number, or of higher id when both share a core number.
CoreForest BuildCoreForest(const Graph& graph,
                           std::span<const uint32_t> core,
                           uint32_t degeneracy) {
  constexpr uint32_t kNoNode = CoreIndex::kNoNode;
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
  // top[r]: the newest node of root r's set; kNoNode for a set that
  // gained a vertex at the current level, which gets a new node.
  std::vector<uint32_t> top(n, kNoNode);
  // absorbed: nodes whose sets joined at the current level; node_vertex:
  // one member of each node, to find its set again.
  std::vector<uint32_t> absorbed;
  std::vector<VertexId> node_vertex;
  const uint64_t* const offsets = graph.offsets().data();
  const VertexId* const adjacency = graph.neighbors().data();
  CoreForest forest;
  forest.node_of.resize(n);
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
        for (const VertexId r : {root, other}) {
          if (top[r] != kNoNode) absorbed.push_back(top[r]);
          top[r] = kNoNode;
        }
        if (set_size[root] < set_size[other]) std::swap(root, other);
        parent[other] = root;
        set_size[root] += set_size[other];
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const VertexId v = order[i];
      const VertexId root = find(v);
      if (top[root] == kNoNode) {
        top[root] = static_cast<uint32_t>(forest.nodes.size());
        forest.nodes.push_back({kNoNode, c, set_size[root]});
        node_vertex.push_back(v);
      }
      forest.node_of[v] = top[root];
    }
    for (const uint32_t child : absorbed) {
      forest.nodes[child].parent = top[find(node_vertex[child])];
    }
    absorbed.clear();
  }
  return forest;
}

}  // namespace

CoreIndex::CoreIndex(const Graph& graph) {
  CoreDecomposition cores = ComputeCores(graph);
  degeneracy_ = cores.degeneracy;
  CoreForest forest = BuildCoreForest(graph, cores.core, cores.degeneracy);
  node_of_ = ConstArray<uint32_t>(std::move(forest.node_of));
  forest_ = ConstArray<CoreForestNode>(std::move(forest.nodes));
  core_ = ConstArray<uint32_t>(std::move(cores.core));
}

CoreIndex CoreIndex::FromParts(ConstArray<uint32_t> core,
                               ConstArray<uint32_t> node_of,
                               ConstArray<CoreForestNode> forest,
                               uint32_t degeneracy) {
  CoreIndex index;
  index.core_ = std::move(core);
  index.node_of_ = std::move(node_of);
  index.forest_ = std::move(forest);
  index.degeneracy_ = degeneracy;
  return index;
}

uint32_t CoreIndex::ComponentNode(VertexId v, uint32_t k) const {
  uint32_t node = node_of_[v];
  for (uint32_t up = forest_[node].parent;
       up != kNoNode && forest_[up].level >= k; up = forest_[up].parent) {
    node = up;
  }
  return node;
}

uint32_t CoreIndex::CommonNode(std::span<const VertexId> vertices) const {
  uint32_t common = node_of_[vertices[0]];
  for (const VertexId v : vertices.subspan(1)) {
    // Lift the deeper of the two nodes (both on a tie) until they meet:
    // a node of higher level is never an ancestor of the other.
    uint32_t node = node_of_[v];
    while (node != common) {
      const uint32_t common_level = forest_[common].level;
      const uint32_t node_level = forest_[node].level;
      if (common_level >= node_level) common = forest_[common].parent;
      if (node_level >= common_level) node = forest_[node].parent;
      if (common == kNoNode || node == kNoNode) return kNoNode;
    }
  }
  return common;
}

}  // namespace locs
